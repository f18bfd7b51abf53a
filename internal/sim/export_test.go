package sim

// ImageDigests returns the digest pd's memory image stored when it was
// built, and the digest recomputed from the image's pages now. They
// differ if a run wrote to the shared image.
func ImageDigests(pd *Predecoded) (stored, recomputed uint64) {
	for pn, p := range pd.img.pages {
		recomputed ^= foldPage(pn, p)
	}
	return pd.img.digest, recomputed
}

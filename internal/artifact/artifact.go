// Package artifact defines the serializable compile-artifact format of
// the boosting toolchain: a versioned, checksummed binary encoding of a
// compiled workload — the master program after register allocation and
// profile transfer, its reference-run observables, the per-pass compile
// report, and any number of scheduled variants (one per machine model ×
// scheduler-option combination, each with its compensation-rewritten
// program image and boosted-exception recovery code).
//
// The package also provides the places artifacts live: a content-addressed
// disk store with fsync'd atomic writes, LRU size capping and
// corruption-detecting checksums (store.go), an HTTP peer client with
// per-peer timeouts and circuit breaking (peer.go), and the tiered
// disk→peer cache the pipeline consults on compile misses (tiered.go).
// See docs/ARTIFACTS.md for the wire layout and compatibility policy.
package artifact

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc64"
	"sync"

	"boosting/internal/core"
	"boosting/internal/isa"
	"boosting/internal/machine"
	"boosting/internal/passes"
	"boosting/internal/prog"
	"boosting/internal/sim"
)

// Version is the current artifact encoding version. Decode rejects every
// other version with ErrVersion: the format carries semantic compiler
// output, so cross-version compatibility shims are never worth a wrong
// schedule.
const Version = 1

// magic identifies an encoded Artifact; magicSched identifies a
// standalone scheduled program (EncodeSchedProgram).
const (
	magic      = "BSTA"
	magicSched = "BSTV"
)

// crcTable is the checksum polynomial (ECMA-182, the usual Go choice for
// content integrity).
var crcTable = crc64.MakeTable(crc64.ECMA)

// RefResult is the reference interpreter's observables, embedded so a
// warm process can verify simulations without re-running the reference.
type RefResult struct {
	Out      []uint32
	Insts    int64
	Branches int64
	Taken    int64
	MemHash  uint64
}

// Variant is one scheduled form of the compiled program: the machine
// schedule (cycles × issue slots, recovery code) produced for one machine
// model under one scheduler-option set, carrying its own program image
// because scheduling rewrites the CFG (compensation blocks).
type Variant struct {
	// Key identifies the variant: VariantKey(model, options) — a
	// structural model fingerprint crossed with the scheduler options, so
	// lookup never depends on model display names.
	Key string
	// Sched is the scheduled program (Sched.Model is the machine model it
	// was scheduled for).
	Sched *machine.SchedProgram
	// Stats is the schedule pass report (nil if not recorded).
	Stats *passes.CompileStats
}

// Artifact is a serializable compiled workload. It carries everything a
// fresh process needs to simulate without compiling: the master program,
// the reference observables the simulators verify against, the compile
// report, the memoized scalar baseline, and scheduled variants.
type Artifact struct {
	// Workload names the workload this artifact was compiled from.
	Workload string
	// InfiniteRegisters records whether register allocation was skipped.
	InfiniteRegisters bool
	// Program is the master compiled test program (post-regalloc,
	// post-profile-transfer, unscheduled).
	Program *prog.Program
	// Ref holds the reference interpreter's observables for Program.
	Ref RefResult
	// Accuracy is the static branch predictor's accuracy on the test
	// input.
	Accuracy float64
	// ScalarCycles is the memoized R2000 baseline cycle count (0 if not
	// yet measured).
	ScalarCycles int64
	// Stats is the per-pass report of the build that produced Program.
	Stats *passes.CompileStats
	// Variants lists scheduled forms, sorted by Key.
	Variants []*Variant
}

// ISAFingerprint digests the instruction-set definition the encoder was
// built against: every opcode's name, functional-unit class, latency and
// exception behavior, plus the architectural register count. Two builds
// with different tables must never exchange artifacts — a schedule is
// only correct for the latencies it was scheduled against. The tables
// are fixed at build time, so the digest is computed once.
func ISAFingerprint() uint64 { return isaFingerprint() }

var isaFingerprint = sync.OnceValue(func() uint64 {
	h := sha256.New()
	fmt.Fprintf(h, "archregs=%d;classes=%d;", isa.NumArchRegs, isa.NumClasses)
	for op := isa.Op(0); op < isa.Op(isa.NumOps); op++ {
		fmt.Fprintf(h, "%d=%s/%s/%d/%v/%v;", uint8(op), op, isa.ClassOf(op),
			isa.Latency(op), isa.CanExcept(op), isa.HasDelaySlot(op))
	}
	sum := h.Sum(nil)
	return binary.LittleEndian.Uint64(sum[:8])
})

// ModelFingerprint renders a machine model's structural identity: issue
// width, slot classes, boosting hardware and exception overhead — but not
// the display name, so models that schedule identically share variants
// and name collisions (two Wide4 configurations) stay distinct.
func ModelFingerprint(m *machine.Model) string {
	return fmt.Sprintf("iw=%d;slots=%v;boost=%d/%v/%d/%v/%v;exc=%d",
		m.IssueWidth, m.Slots, m.Boost.MaxLevel, m.Boost.StoreBuffer,
		m.Boost.StoreBufferSize, m.Boost.MultiShadow, m.Boost.SquashOnly,
		m.ExceptionOverhead)
}

// OptsKey renders the scheduler options that shape a schedule.
func OptsKey(o core.Options) string {
	return fmt.Sprintf("local=%v;noeq=%v;nodis=%v;nobl=%v;trace=%d",
		o.LocalOnly, o.DisableEquivalence, o.NoDisambiguation,
		o.NoBoostedLoads, o.MaxTraceBlocks)
}

// VariantKey identifies a scheduled variant: the structural model
// fingerprint crossed with the scheduler options.
func VariantKey(m *machine.Model, o core.Options) string {
	return ModelFingerprint(m) + "|" + OptsKey(o)
}

// FindVariant returns the scheduled variant for (model, options), or nil.
func (a *Artifact) FindVariant(m *machine.Model, o core.Options) *Variant {
	key := VariantKey(m, o)
	for _, v := range a.Variants {
		if v.Key == key {
			return v
		}
	}
	return nil
}

// Encode serializes the artifact:
//
//	magic "BSTA" | uvarint version | u64 ISA fingerprint | payload | u64 crc64
//
// The trailing checksum covers everything before it, so any bit flip —
// including in the magic or version — surfaces as ErrCorrupt before any
// field is interpreted. Encoding is deterministic: encoding a decoded
// artifact reproduces the bytes exactly.
func (a *Artifact) Encode() ([]byte, error) {
	if a.Program == nil {
		return nil, fmt.Errorf("artifact: encode: nil program")
	}
	w := &writer{}
	w.buf = append(w.buf, magic...)
	w.uvarint(Version)
	w.u64(ISAFingerprint())

	w.str(a.Workload)
	w.bool(a.InfiniteRegisters)
	if err := encodeProgram(w, a.Program); err != nil {
		return nil, err
	}
	w.uvarint(uint64(len(a.Ref.Out)))
	for _, v := range a.Ref.Out {
		w.uvarint(uint64(v))
	}
	w.varint(a.Ref.Insts)
	w.varint(a.Ref.Branches)
	w.varint(a.Ref.Taken)
	w.u64(a.Ref.MemHash)
	w.f64(a.Accuracy)
	w.varint(a.ScalarCycles)
	if err := encodeStats(w, a.Stats); err != nil {
		return nil, err
	}
	w.uvarint(uint64(len(a.Variants)))
	for _, v := range a.Variants {
		w.str(v.Key)
		if err := encodeVariantBody(w, v.Sched, v.Stats); err != nil {
			return nil, err
		}
	}

	w.u64(crc64.Checksum(w.buf, crcTable))
	return w.bytes(), nil
}

// Decode deserializes an artifact, rejecting damaged input (ErrCorrupt),
// other encoding versions (ErrVersion) and artifacts built against a
// different instruction set (ErrISA). Decoded programs are verified
// structurally — the program verifier on the master, the schedule
// verifier on every variant — so a decode that succeeds yields a program
// the simulators can trust as much as a freshly compiled one.
func Decode(data []byte) (*Artifact, error) {
	if err := checkFrame(data, magic); err != nil {
		return nil, err
	}
	r := newReader(data[:len(data)-8])
	r.off = len(magic)
	if v := r.uvarint(); r.err == nil && v != Version {
		return nil, fmt.Errorf("%w: got version %d, want %d", ErrVersion, v, Version)
	}
	if fp := r.u64(); r.err == nil && fp != ISAFingerprint() {
		return nil, fmt.Errorf("%w: artifact %016x, this build %016x", ErrISA, fp, ISAFingerprint())
	}

	a := &Artifact{}
	a.Workload = r.str()
	a.InfiniteRegisters = r.bool()
	a.Program = decodeProgram(r)
	nOut := r.length("output stream", 1)
	a.Ref.Out = make([]uint32, 0, nOut)
	for i := 0; i < nOut && r.err == nil; i++ {
		v := r.uvarint()
		if v > 0xFFFF_FFFF {
			r.fail("output value out of u32 range")
			break
		}
		a.Ref.Out = append(a.Ref.Out, uint32(v))
	}
	a.Ref.Insts = r.count64("ref insts")
	a.Ref.Branches = r.count64("ref branches")
	a.Ref.Taken = r.count64("ref taken")
	a.Ref.MemHash = r.u64()
	a.Accuracy = r.f64()
	a.ScalarCycles = r.count64("scalar cycles")
	a.Stats = decodeStats(r)
	nVar := r.length("variants", 4)
	for i := 0; i < nVar && r.err == nil; i++ {
		key := r.str()
		sp, stats := decodeVariantBody(r)
		if r.err != nil {
			break
		}
		a.Variants = append(a.Variants, &Variant{Key: key, Sched: sp, Stats: stats})
	}
	if r.err != nil {
		return nil, r.err
	}
	if !r.done() {
		return nil, fmt.Errorf("%w: %d trailing bytes after payload", ErrCorrupt, r.remaining())
	}

	if err := prog.VerifyProgram(a.Program); err != nil {
		return nil, fmt.Errorf("%w: decoded program fails verification: %v", ErrCorrupt, err)
	}
	for _, v := range a.Variants {
		if err := v.Sched.Verify(); err != nil {
			return nil, fmt.Errorf("%w: decoded schedule %q fails verification: %v", ErrCorrupt, v.Key, err)
		}
	}
	return a, nil
}

// Predecode lowers a decoded variant for the fast execution core,
// re-deriving the dense arrays from the schedule. The lowering is
// deterministic and cheap relative to scheduling, so the encoding ships
// the schedule once instead of the schedule plus a redundant (and
// skew-prone) copy of its lowered form; see docs/ARTIFACTS.md.
func (v *Variant) Predecode() (*sim.Predecoded, error) {
	return sim.Predecode(v.Sched)
}

// checkFrame validates the outer frame shared by every encoding: minimum
// length, magic, and the trailing crc64 over everything before it.
func checkFrame(data []byte, wantMagic string) error {
	if len(data) < len(wantMagic)+1+8+8 {
		return fmt.Errorf("%w: input too short (%d bytes)", ErrCorrupt, len(data))
	}
	body, sum := data[:len(data)-8], binary.LittleEndian.Uint64(data[len(data)-8:])
	if got := crc64.Checksum(body, crcTable); got != sum {
		return fmt.Errorf("%w: checksum mismatch (stored %016x, computed %016x)", ErrCorrupt, sum, got)
	}
	if string(data[:len(wantMagic)]) != wantMagic {
		return fmt.Errorf("%w: bad magic %q", ErrCorrupt, data[:len(wantMagic)])
	}
	return nil
}

// encodeStats embeds a compile report as JSON: the report is a stats
// payload, not a hot decode path, and Go's JSON keeps map keys sorted so
// the encoding stays deterministic.
func encodeStats(w *writer, cs *passes.CompileStats) error {
	if cs == nil {
		w.blob(nil)
		return nil
	}
	b, err := json.Marshal(cs)
	if err != nil {
		return fmt.Errorf("artifact: encode stats: %w", err)
	}
	w.blob(b)
	return nil
}

func decodeStats(r *reader) *passes.CompileStats {
	b := r.blob()
	if r.err != nil || len(b) == 0 {
		return nil
	}
	cs := &passes.CompileStats{}
	if err := json.Unmarshal(b, cs); err != nil {
		r.fail("stats payload: %v", err)
		return nil
	}
	return cs
}

// EncodeSchedProgram serializes a standalone scheduled program (its
// program image, model and schedule) with the same framing as a full
// artifact. The differential-testing oracle uses it to run every
// configuration through an encode→decode round trip.
func EncodeSchedProgram(sp *machine.SchedProgram) ([]byte, error) {
	w := &writer{}
	w.buf = append(w.buf, magicSched...)
	w.uvarint(Version)
	w.u64(ISAFingerprint())
	if err := encodeVariantBody(w, sp, nil); err != nil {
		return nil, err
	}
	w.u64(crc64.Checksum(w.buf, crcTable))
	return w.bytes(), nil
}

// ScheduleDigest is the sha256 of a scheduled program's encoding without
// its pass report: the program image, the machine model and the schedule,
// everything the simulator reads of it. Two schedules with equal digests
// execute identically under any ExecConfig.
func ScheduleDigest(sp *machine.SchedProgram) [sha256.Size]byte {
	w := &writer{}
	// Without a pass report to marshal, the encoding cannot fail.
	_ = encodeVariantBody(w, sp, nil)
	return sha256.Sum256(w.buf)
}

// DecodeSchedProgram is the inverse of EncodeSchedProgram, with the same
// rejection classes as Decode and the schedule verifier run on the
// result.
func DecodeSchedProgram(data []byte) (*machine.SchedProgram, error) {
	if err := checkFrame(data, magicSched); err != nil {
		return nil, err
	}
	r := newReader(data[:len(data)-8])
	r.off = len(magicSched)
	if v := r.uvarint(); r.err == nil && v != Version {
		return nil, fmt.Errorf("%w: got version %d, want %d", ErrVersion, v, Version)
	}
	if fp := r.u64(); r.err == nil && fp != ISAFingerprint() {
		return nil, fmt.Errorf("%w: artifact %016x, this build %016x", ErrISA, fp, ISAFingerprint())
	}
	sp, _ := decodeVariantBody(r)
	if r.err != nil {
		return nil, r.err
	}
	if !r.done() {
		return nil, fmt.Errorf("%w: %d trailing bytes after payload", ErrCorrupt, r.remaining())
	}
	if err := sp.Verify(); err != nil {
		return nil, fmt.Errorf("%w: decoded schedule fails verification: %v", ErrCorrupt, err)
	}
	return sp, nil
}

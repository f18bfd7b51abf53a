package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"time"

	"boosting"
	"boosting/internal/core"
	"boosting/internal/machine"
	"boosting/internal/profile"
	"boosting/internal/prog"
	"boosting/internal/regalloc"
	"boosting/internal/service"
	"boosting/internal/sim"
	"boosting/internal/testgen"
)

const (
	// asmPool is the number of distinct (program, model) computing keys.
	// Every round sends each once, as a body the server has not seen.
	asmPool = 384
	// maxRefSteps is service.Config's default MaxRefSteps; the server caps
	// the reference run at it and every exec at eight times it.
	maxRefSteps = 20_000_000
)

// asmModels rotate over the pool, NoBoost to Boost7.
var asmModels = []string{"NoBoost", "Squashing", "Boost1", "MinBoost3", "Boost7"}

type asmKey struct {
	model string
	asm   string
}

// asmPlan is the seed's traffic: the pool of computing keys and, for every
// third computing request of a round, which earlier body of the same round
// the following request repeats.
type asmPlan struct {
	keys []asmKey
	hits []int
}

// newAsmPlan draws the pool from the seed. Key j's program shape
// (segments, nesting, registers, calls) is testgen.RandomShape(j+1) at
// every seed, and the seed draws the program within that shape, so the
// pool's size mix, and with it the work per round, does not swing from
// seed to seed.
func newAsmPlan(seed int64) asmPlan {
	var p asmPlan
	for j := 0; j < asmPool; j++ {
		s := mix(seed, int64(j))
		p.keys = append(p.keys, asmKey{
			model: asmModels[j%len(asmModels)],
			asm:   prog.FormatProgram(testgen.Random(s, testgen.RandomShape(int64(j)+1))),
		})
	}
	rng := rand.New(rand.NewSource(seed))
	for j := 2; j < asmPool; j += 3 {
		p.hits = append(p.hits, rng.Intn(j+1))
	}
	return p
}

// body is key j's request in round r. The leading comment makes the text,
// and so the server's cache key, new in every round, while the program
// and the work it takes stay the same.
func (p asmPlan) body(j, round int) ([]byte, error) {
	k := p.keys[j]
	return json.Marshal(service.SimulateRequest{
		Asm:   fmt.Sprintf("# perfbench round %d\n%s", round, k.asm),
		Model: k.model,
	})
}

// boostd is one in-process server behind a loopback listener and a
// client holding a single keep-alive connection.
type boostd struct {
	svc    *service.Server
	ts     *httptest.Server
	tr     *http.Transport
	client *http.Client
}

// startBoostd builds the server and returns once it has answered its
// first request.
func startBoostd() (*boostd, error) {
	svc, err := service.New(service.Config{})
	if err != nil {
		return nil, err
	}
	b := &boostd{svc: svc, ts: httptest.NewServer(svc.Handler())}
	b.tr = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	b.client = &http.Client{Transport: b.tr}
	resp, err := b.client.Get(b.ts.URL + "/healthz")
	if err != nil {
		b.close()
		return nil, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	if err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

func (b *boostd) close() {
	b.tr.CloseIdleConnections()
	b.ts.Close()
	b.svc.Close()
}

type reply struct {
	status int
	cache  string
	body   []byte
}

func (b *boostd) simulate(body []byte) (reply, error) {
	resp, err := b.client.Post(b.ts.URL+"/v1/simulate", "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, cache: resp.Header.Get("X-Boostd-Cache"), body: out}, nil
}

// check applies the per-request checks: transport, status (500 is the
// server's verification failure), cache source and body digest.
func (o *op) check(rep reply, err error, wantCache string, want []byte) bool {
	switch {
	case o.fail("http", err):
	case rep.status == http.StatusInternalServerError:
		o.fail("verify", fmt.Errorf("status 500: %s", bytes.TrimSpace(rep.body)))
	case rep.status != http.StatusOK:
		o.fail("http", fmt.Errorf("status %d: %s", rep.status, bytes.TrimSpace(rep.body)))
	}
	if err == nil && rep.cache != wantCache {
		o.fail("cache", fmt.Errorf("X-Boostd-Cache %q, want %q", rep.cache, wantCache))
	}
	if err == nil && want != nil && !bytes.Equal(rep.body, want) {
		o.fail("digest", errDigest)
	}
	return !o.failed
}

// asmServe is the boostd path: one server for the whole run, one client
// issuing /v1/simulate requests in a closed loop. Each round sends every
// pool key as a body the server has not seen (the computing operation)
// and, after every third, repeats an earlier body of the round (the
// response-cache hit).
func asmServe(ctx context.Context, r *runState) error {
	plan := newAsmPlan(r.cfg.seed)

	const setups = 200
	var (
		setupTimes []time.Duration
		srv        *boostd
	)
	for i := 0; i < setups; i++ {
		if i%20 == 0 {
			r.clock.sample()
		}
		runtime.GC()
		t0 := time.Now()
		b, err := startBoostd()
		setupTimes = append(setupTimes, time.Since(t0))
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		if i < setups-1 {
			b.close()
		} else {
			srv = b
		}
	}
	defer srv.close()

	miss, hit := newSamples(), newSamples()
	tracedMiss := newSamples()
	var (
		alloc     allocMeter
		peak      float64
		firstBody = make([][]byte, asmPool)
		cycles    []int64 // per computing request of the first round
		boosted   int64
		squashed  int64
		speedups  []float64
		plainReqs int
		plainTime time.Duration
		rp        = &replayer{tr: r.tr}
		restSum   time.Duration
		restN     int
	)
	runtime.GC()
	since := readCounters()
	deadline := time.Now().Add(r.cfg.seconds)
	for round := 0; round < 2 || time.Now().Before(deadline); round++ {
		traced := r.tr != nil && round%2 == 1
		runtime.GC()
		roundStart := time.Now()
		sent, roundBodies := make([][]byte, asmPool), make([][]byte, asmPool)
		for j := 0; j < asmPool; j++ {
			body, err := plan.body(j, round)
			if err != nil {
				return err
			}
			sent[j] = body
			if j%32 == 0 {
				r.clock.sample()
			}
			o := r.op()
			unit := r.unit()
			root := -1
			if traced {
				root = r.tr.begin("unit", unit, -1)
			} else {
				alloc.begin()
			}
			t0 := time.Now()
			rep, err := srv.simulate(body)
			d := time.Since(t0)
			r.tr.end(root)
			if !traced {
				alloc.end()
			}
			if o.check(rep, err, "miss", firstBody[j]) {
				if traced {
					tracedMiss.add(fmt.Sprint(j), d)
				} else {
					miss.add(fmt.Sprint(j), d)
				}
			}
			roundBodies[j] = rep.body
			if round == 0 && err == nil {
				firstBody[j] = rep.body
				var res service.SimulateResponse
				if rep.status == http.StatusOK && !o.fail("digest", json.Unmarshal(rep.body, &res)) {
					cycles = append(cycles, res.Cycles+res.ScalarCycles)
					boosted += res.BoostedExec
					squashed += res.Squashed
					speedups = append(speedups, res.Speedup)
				}
			}
			if traced && err == nil && rep.status == http.StatusOK {
				rp.start(unit)
				layers, err := replayAsm(rp, body, rep.body)
				rp.finish()
				if !o.fail("verify", err) {
					restSum += d - layers
					restN++
				}
			}
			if !traced {
				plainReqs++
			}

			if j%3 == 2 {
				target := plan.hits[j/3]
				h := r.op()
				t0 := time.Now()
				rep, err := srv.simulate(sent[target])
				d := time.Since(t0)
				if h.check(rep, err, "hit", roundBodies[target]) && !traced {
					hit.add(fmt.Sprint(j/3), d)
				}
				if !traced {
					plainReqs++
				}
			}
		}
		if !traced {
			plainTime += time.Since(roundStart)
		}
		if round == 0 {
			peak = liveHeapMiB()
		}
	}
	runtime.KeepAlive(srv)

	if r.tr != nil {
		r.setRuntimeMetrics(&alloc, since)
		r.setResultCounts(boosted, squashed)
		if restN > 0 {
			r.set("service.miss_rest_us", us(restSum)/float64(restN), "us")
		}
		r.setLayerMetrics(rp, nil, miss.fastestMedian(), tracedMiss.fastestMedian())
		pooled := miss.pooled()
		p99, _ := percentile(pooled, 99)
		r.set("service.miss_p99_ms", ms(p99), "ms")
		r.set("service.miss_p99_n", float64(len(pooled)), "count")
		r.set("service.hit_us", us(medianDur(hit.pooled())), "us")
		r.set("service.hit_ratio", float64(len(plan.hits))/float64(asmPool+len(plan.hits)), "share")
		r.set("service.req_per_s", float64(plainReqs)/plainTime.Seconds(), "1/s")
		return nil
	}
	// A few long-running programs dominate a round's cycle total, so the
	// cycle metrics follow the median computing request.
	if len(cycles) == 0 {
		return fmt.Errorf("every computing request of the first round failed")
	}
	sort.Slice(cycles, func(i, j int) bool { return cycles[i] < cycles[j] })
	medianCycles := cycles[len(cycles)/2]
	miss50 := miss.fastestMedian()
	r.setEndToEnd(minDur(setupTimes), peak, miss.fastestSum()+hit.fastestSum(), miss50, medianCycles,
		miss50, hit.fastestMedian(), geoMean(speedups))
	return nil
}

// replayAsm mirrors the service's asm path for one request: decode the
// body, prepareAsm (parse, register-allocate, bounded reference run,
// self-profile), asmScalarBaseline, the model's schedule and run, and the
// response encoding. It returns the replayed compute layers' time, which
// excludes the JSON decode and encode.
func replayAsm(rp *replayer, body, resp []byte) (time.Duration, error) {
	var (
		req service.SimulateRequest
		pr  *prog.Program
		ref *sim.Result
		err error
	)
	t := rp.tr
	mark := len(t.spans)
	if rp.span("service.decode", func() { err = json.Unmarshal(body, &req) }); err != nil {
		return 0, err
	}
	if rp.span("prog.parse", func() { pr, err = prog.Parse(req.Asm) }); err != nil {
		return 0, err
	}
	if rp.span("regalloc.allocate", func() { _, err = regalloc.Allocate(pr) }); err != nil {
		return 0, err
	}
	if rp.span("sim.ref", func() { ref, err = sim.Run(pr, sim.RefConfig{MaxSteps: maxRefSteps}) }); err != nil {
		return 0, err
	}
	if rp.span("profile.annotate", func() { err = profile.Annotate(pr) }); err != nil {
		return 0, err
	}
	exec := sim.ExecConfig{MaxCycles: maxRefSteps * 8}
	sp, err := rp.schedule(pr, machine.Scalar(), core.Options{LocalOnly: true})
	if err != nil {
		return 0, err
	}
	if _, err := rp.exec(sp, exec, ref); err != nil {
		return 0, err
	}
	model, err := boosting.ModelByName(req.Model)
	if err != nil {
		return 0, err
	}
	if sp, err = rp.schedule(pr, model, core.Options{}); err != nil {
		return 0, err
	}
	if _, err := rp.exec(sp, exec, ref); err != nil {
		return 0, err
	}
	var out service.SimulateResponse
	if err := json.Unmarshal(resp, &out); err != nil {
		return 0, err
	}
	rp.span("service.encode", func() { _, err = json.Marshal(out) })
	var compute time.Duration
	for _, s := range t.spans[mark:] {
		if s.Name != "service.decode" && s.Name != "service.encode" {
			compute += s.dur()
		}
	}
	return compute, err
}

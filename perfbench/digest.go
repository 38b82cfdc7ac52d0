package main

import (
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"time"

	"mqdp"
	"mqdp/internal/index"
	"mqdp/internal/match"
)

// digestPassSeconds is the nominal wall time of one digest pass (every
// window × profile once); the pass count is seconds / digestPassSeconds,
// so it depends on --seconds only.
const digestPassSeconds = 2.7

// digestRun is what one run of the digest path measured and produced.
type digestRun struct {
	AddMs    []float64 // per window: AddBatch latency
	AddDocs  []int
	DigestMs []float64 // per (window, profile): FromIndex + both solves
	SetupMs  []float64 // per set-up: every profile's matcher plus an empty index
	SubMs    []float64 // per matcher build within the set-ups
	// CPUS is the process CPU over every pass but the first, which also
	// runs the correctness checks; Posts is what those passes indexed.
	CPUS   float64
	Posts  int
	RSSMiB float64
	// Covers[w*profiles+p] are the selected post IDs of Scan+ then
	// GreedySC for window w and profile p (first pass).
	Covers [][2][]int64
	Failed []string
	Checks int

	// Traced-run layer timings (in-process only).
	QueryMs, QueryPosts           []float64
	SolveMs                       map[string][]float64
	VerifyMs, SkipMs              float64
	AddTotal, QueryTotal, SolveTo float64
}

// windows returns the post index bounds of each hourly window.
func windows(in *digestInputs) [][2]int {
	var out [][2]int
	lo := 0
	for h := 0; h < in.Hours; h++ {
		end := float64(h+1) * 3600
		hi := lo
		for hi < len(in.Posts) && in.Posts[hi].Time < end {
			hi++
		}
		out = append(out, [2]int{lo, hi})
		lo = hi
	}
	return out
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// setupPath sets the digest path up reps times: every profile's matcher,
// then an empty index. It returns the last set-up's matchers and index,
// and appends each set-up's time and each matcher build's time to r.
func setupPath(profiles [][]match.Topic, reps int, r *digestRun) ([]*match.Matcher, *index.Index, error) {
	matchers := make([]*match.Matcher, len(profiles))
	var ix *index.Index
	for rep := 0; rep < max(reps, 1); rep++ {
		t0 := time.Now()
		for i, topics := range profiles {
			t := time.Now()
			m, err := match.NewMatcher(topics)
			r.SubMs = append(r.SubMs, msSince(t))
			if err != nil {
				return nil, nil, fmt.Errorf("profile %d: %w", i, err)
			}
			matchers[i] = m
		}
		ix = index.New()
		r.SetupMs = append(r.SetupMs, msSince(t0))
	}
	return matchers, ix, nil
}

// digestPath runs the paper's Fig. 1 offline path: per pass setups
// set-ups (the last one's matchers and empty index serve the pass), per
// hour one AddBatch of the hour's posts, then for every profile
// match.FromIndex over the trailing in.Trail hours and mqdp.Solve with
// Scan+ and GreedySC at library defaults (built-in verify on). traced adds
// per-call timings, the Parallelism 1 and SkipVerify solves.
func digestPath(in *digestInputs, setups int, r *digestRun, traced bool) error {
	ws := windows(in)
	docs := make([][]index.Doc, len(ws))
	for w, b := range ws {
		for _, p := range in.Posts[b[0]:b[1]] {
			docs[w] = append(docs[w], index.Doc{ID: p.ID, Time: p.Time, Text: p.Text})
		}
	}
	if r.SolveMs == nil {
		r.SolveMs = map[string][]float64{}
	}
	fail := func(format string, args ...any) {
		r.Failed = append(r.Failed, fmt.Sprintf(format, args...))
	}
	ms := msSince
	for pass := 0; pass < in.Passes; pass++ {
		// Every pass starts from a collected heap, outside every timer and
		// the CPU count: the previous pass's index is garbage by now, and a
		// GC cycle caught mid-way would land on whichever timing ran into it.
		runtime.GC()
		// The set-ups are spread over the passes so that their
		// microsecond timings sample the whole run, not one moment of it.
		matchers, ix, err := setupPath(in.Profiles, setups, r)
		if err != nil {
			return err
		}
		cpu0, _ := procCPU(os.Getpid())
		passPosts := 0
		for w := range ws {
			t := time.Now()
			n, err := ix.AddBatch(docs[w])
			r.AddMs = append(r.AddMs, ms(t))
			r.AddDocs = append(r.AddDocs, n)
			passPosts += n
			if err != nil {
				fail("window %d: AddBatch: %v", w, err)
			}
			lo, hi := float64(max(0, w+1-in.Trail))*3600, float64(w+1)*3600-1e-9
			for p, m := range matchers {
				t := time.Now()
				posts := m.FromIndex(ix, match.ByTime, lo, hi)
				tq := time.Now()
				inst, err := mqdp.NewInstance(posts, m.NumTopics())
				if err != nil {
					fail("window %d profile %d: %v", w, p, err)
					continue
				}
				sp, err1 := mqdp.Solve(inst, mqdp.Options{Lambda: in.Lambda, Algorithm: mqdp.ScanPlus})
				ts := time.Now()
				gs, err2 := mqdp.Solve(inst, mqdp.Options{Lambda: in.Lambda, Algorithm: mqdp.GreedySC})
				tg := time.Now()
				r.DigestMs = append(r.DigestMs, ms(t))
				if err1 != nil || err2 != nil {
					fail("window %d profile %d: solve: %v %v", w, p, err1, err2)
					continue
				}
				if traced {
					r.QueryMs = append(r.QueryMs, float64(tq.Sub(t))/1e6)
					r.QueryPosts = append(r.QueryPosts, float64(len(posts)))
					r.SolveMs["scanplus.p0"] = append(r.SolveMs["scanplus.p0"], float64(ts.Sub(tq))/1e6)
					r.SolveMs["greedysc.p0"] = append(r.SolveMs["greedysc.p0"], float64(tg.Sub(ts))/1e6)
					r.QueryTotal += float64(tq.Sub(t)) / 1e6
					r.SolveTo += float64(tg.Sub(tq)) / 1e6
				}
				if pass == 0 {
					r.Covers = append(r.Covers, [2][]int64{coverIDs(inst, sp), coverIDs(inst, gs)})
					// Checks, outside every timer: both covers verify, and
					// Parallelism 1 returns the same covers as the default.
					for k, c := range []*mqdp.Cover{sp, gs} {
						r.Checks++
						if err := mqdp.Verify(inst, in.Lambda, c.Selected); err != nil {
							fail("window %d profile %d solver %d: %v", w, p, k, err)
						}
					}
					for k, algo := range []mqdp.Algorithm{mqdp.ScanPlus, mqdp.GreedySC} {
						t := time.Now()
						c, err := mqdp.Solve(inst, mqdp.Options{Lambda: in.Lambda, Algorithm: algo, Parallelism: 1})
						if traced {
							name := []string{"scanplus.p1", "greedysc.p1"}[k]
							r.SolveMs[name] = append(r.SolveMs[name], ms(t))
						}
						r.Checks++
						if err != nil || !reflect.DeepEqual(c.Selected, []*mqdp.Cover{sp, gs}[k].Selected) {
							fail("window %d profile %d: Parallelism 1 cover differs (%v)", w, p, err)
						}
					}
					if traced {
						// The verify share compares serial solves (at the
						// default parallelism, goroutine start-up on small
						// instances outweighs the verify itself), alternating
						// with and without verify so that neither side gets
						// the warmer caches or a GC cycle to itself.
						for k := 0; k < 3; k++ {
							for _, skip := range []bool{false, true} {
								t := time.Now()
								_, _ = mqdp.Solve(inst, mqdp.Options{Lambda: in.Lambda, Algorithm: mqdp.ScanPlus, Parallelism: 1, SkipVerify: skip})
								_, _ = mqdp.Solve(inst, mqdp.Options{Lambda: in.Lambda, Algorithm: mqdp.GreedySC, Parallelism: 1, SkipVerify: skip})
								if skip {
									r.SkipMs += ms(t)
								} else {
									r.VerifyMs += ms(t)
								}
							}
						}
					}
				} else {
					k := w*len(matchers) + p
					r.Checks++
					if !reflect.DeepEqual(r.Covers[k], [2][]int64{coverIDs(inst, sp), coverIDs(inst, gs)}) {
						fail("window %d profile %d: pass %d cover differs from pass 0", w, p, pass)
					}
				}
			}
		}
		// Pass 0 also verifies every cover and re-solves at Parallelism
		// 1; only the later passes count toward the CPU per post.
		if pass > 0 {
			cpu1, _ := procCPU(os.Getpid())
			r.CPUS += cpu1 - cpu0
			r.Posts += passPosts
		}
	}
	for _, a := range r.AddMs {
		r.AddTotal += a
	}
	return nil
}

func coverIDs(inst *mqdp.Instance, c *mqdp.Cover) []int64 {
	ids := make([]int64, len(c.Selected))
	for i, s := range c.Selected {
		ids[i] = inst.Post(s).ID
	}
	return ids
}

// digestWorker is the worker process: load the pre-generated inputs, run
// the passes with SetupReps set-ups over them and report on stderr.
func digestWorker(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	var in digestInputs
	err = gob.NewDecoder(f).Decode(&in)
	f.Close()
	if err != nil {
		return err
	}
	r := &digestRun{}
	if err := digestPath(&in, (in.SetupReps+in.Passes-1)/in.Passes, r, false); err != nil {
		return err
	}
	r.RSSMiB, _ = procHWM(os.Getpid())
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench-worker result %s\n", b)
	return nil
}

// runWorker execs the worker on the input file and returns its result.
func runWorker(input string) (*digestRun, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var resultLine string
	c, err := startChild(self, []string{"-digest-worker", input}, func(line string, _ time.Time) {
		if rest, ok := strings.CutPrefix(line, "perfbench-worker result "); ok {
			resultLine = rest
		}
	})
	if err != nil {
		return nil, err
	}
	select {
	case <-c.done:
	case <-time.After(170 * time.Second):
		c.kill()
		return nil, errors.New("digest worker did not finish")
	}
	if !c.cmd.ProcessState.Success() || resultLine == "" {
		return nil, fmt.Errorf("digest worker failed: %v", c.cmd.ProcessState)
	}
	run := &digestRun{}
	return run, json.Unmarshal([]byte(resultLine), run)
}

func writeGob(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := gob.NewEncoder(f).Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func runDigestWorkload(o options, sp spec, res *result) error {
	passes := int(math.Max(2, math.Round(o.seconds/digestPassSeconds)))
	in := genDigest(sp, o.seed, passes)
	res.diag["posts"] = len(in.Posts)
	res.diag["passes"] = passes

	// Inputs are written before any timer starts; the worker loads them
	// before it sets up.
	runPath := filepath.Join(o.workdir, "digest-run.gob")
	if err := writeGob(runPath, in); err != nil {
		return err
	}
	run, err := runWorker(runPath)
	if err != nil {
		return err
	}
	res.attempted += int64(len(run.AddMs) + len(run.DigestMs) + len(run.SubMs) + run.Checks)
	for _, f := range run.Failed {
		res.fail(errors.New(f))
	}
	res.check(len(run.DigestMs) == passes*in.Hours*len(in.Profiles), "digest: %d digests, want %d", len(run.DigestMs), passes*in.Hours*len(in.Profiles))

	rates := make([]float64, len(run.AddMs))
	for i, a := range run.AddMs {
		rates[i] = float64(run.AddDocs[i]) / (a / 1000)
	}
	cover := 0
	for _, c := range run.Covers {
		cover += len(c[0]) + len(c[1])
	}
	res.add("setup_s", median(run.SetupMs)/1000, "s", len(run.SetupMs))
	res.add("ingest_posts_per_s", median(rates), "posts/s", len(rates))
	res.add("ingest_p50_ms", quantile(run.AddMs, 0.5), "ms", len(run.AddMs))
	res.add("ingest_p90_ms", quantile(run.AddMs, 0.9), "ms", len(run.AddMs))
	// Every pass runs the same digests: quantiles per pass, median over
	// the passes.
	perPass := in.Hours * len(in.Profiles)
	res.add("deliver_p50_ms", windowedQuantile(run.DigestMs, 0.5, perPass), "ms", len(run.DigestMs))
	res.add("deliver_p90_ms", windowedQuantile(run.DigestMs, 0.9, perPass), "ms", len(run.DigestMs))
	res.add("server_cpu_us_per_post", run.CPUS/float64(run.Posts)*1e6, "us", 1)
	res.add("rss_mb", run.RSSMiB, "MiB", 1)
	res.add("cover_size", float64(cover), "count", 1)
	res.add("subscribe_p50_ms", quantile(run.SubMs, 0.5), "ms", len(run.SubMs))
	res.diag["digests_per_s"] = float64(len(run.DigestMs)) / (sum(run.DigestMs) / 1000)
	res.diag["deliver_p99_ms"] = quantile(run.DigestMs, 0.99)

	if o.trace {
		res.metrics = nil
		return digestLayers(o, sp, in, run, res)
	}
	return nil
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

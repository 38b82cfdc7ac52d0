// Command perfbench is the end-to-end and per-layer benchmark of the MQDP
// service and its solvers. It runs one workload per invocation:
//
//	perfbench -server PATH -workdir DIR --workload firehose --seed 1 --seconds 12 --trace 0
//
// firehose and durable-fanout drive a real mqdp-server child process over
// HTTP through server.Client; digest drives the library's offline
// index → match → solve path in a worker child process. With --trace 0 the
// last stdout line carries the end-to-end metrics; with --trace 1 it carries
// the per-layer metrics of the in-process traced replay. --repeat k runs the
// workload k times with consecutive seeds and prints each metric's median
// and quartile spread. See README.md for the definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported figure. Samples is the number of observations
// the value was computed from (1 for a single measurement).
type metric struct {
	Name    string
	Value   float64
	Unit    string
	Samples int
}

// result accumulates one run's outcome.
type result struct {
	attempted int64
	failed    int64
	failures  []string
	metrics   []metric
	// diag holds diagnostics printed on the report line only (never gated).
	diag map[string]any
}

func newResult() *result { return &result{diag: map[string]any{}} }

func (r *result) add(name string, value float64, unit string, samples int) {
	r.metrics = append(r.metrics, metric{Name: name, Value: value, Unit: unit, Samples: samples})
}

// op counts one attempted operation and, when err is non-nil, a failed one.
func (r *result) op(err error) {
	r.attempted++
	if err != nil {
		r.fail(err)
	}
}

// fail records a failed operation or check.
func (r *result) fail(err error) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, err.Error())
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", err)
	}
}

// check counts one correctness check.
func (r *result) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(fmt.Errorf(format, args...))
	}
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	server   string
	workdir  string
}

func main() {
	var o options
	var traceFlag, repeat int
	var workerInput string
	flag.StringVar(&o.workload, "workload", "", "workload: firehose, durable-fanout or digest")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 12, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.StringVar(&o.server, "server", "", "path of the mqdp-server binary")
	flag.StringVar(&o.workdir, "workdir", "", "scratch directory for data dirs, worker inputs and span dumps")
	flag.IntVar(&repeat, "repeat", 0, "steadiness mode: run the workload this many times with consecutive seeds")
	flag.StringVar(&workerInput, "digest-worker", "", "internal: run as the digest worker on this input file")
	applyInput := flag.String("apply-worker", "", "internal: run one in-process apply probe from this job file")
	flag.Parse()
	o.trace = traceFlag == 1

	if workerInput != "" || *applyInput != "" {
		var err error
		if workerInput != "" {
			err = digestWorker(workerInput)
		} else {
			err = applyWorker(*applyInput)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: worker:", err)
			os.Exit(1)
		}
		return
	}
	if o.workdir == "" {
		fatalf("-workdir is required")
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fatalf("%v", err)
	}
	if repeat > 0 {
		steadiness(o, traceFlag, repeat)
		return
	}
	spec, ok := specs[o.workload]
	if !ok {
		fatalf("unknown workload %q (want firehose, durable-fanout or digest)", o.workload)
	}
	if spec.kind == kindServer && o.server == "" {
		fatalf("-server is required for %s", o.workload)
	}
	defer killChildren()

	// The load generator holds every input in memory; a lazier GC keeps
	// its collections from competing with the system under test.
	debug.SetGCPercent(400)
	res := newResult()
	res.diag["nproc"] = runtime.NumCPU()
	res.diag["gomaxprocs"] = runtime.GOMAXPROCS(0)
	res.diag["go_version"] = runtime.Version()
	res.diag["seed"] = o.seed
	m0 := readMachine()
	res.diag["machine.calibrate_ms_start"] = calibrate()
	start := time.Now()
	var err error
	if spec.kind == kindServer {
		err = runServerWorkload(o, spec, res)
	} else {
		err = runDigestWorkload(o, spec, res)
	}
	killChildren()
	if err != nil {
		fatalf("%s: %v", o.workload, err)
	}
	res.diag["machine.calibrate_ms_end"] = calibrate()
	m1 := readMachine()
	res.diag["machine.steal_pct"] = m1.stealPct(m0)
	res.diag["machine.idle_pct"] = m1.idlePct(m0)
	res.diag["wall_s"] = time.Since(start).Seconds()
	emit(res)
}

// emit prints the report line (every metric with its sample count, plus
// diagnostics and failures) and then, as the last stdout line, the result
// object.
func emit(res *result) {
	type detail struct {
		Value   float64 `json:"value"`
		Unit    string  `json:"unit"`
		Samples int     `json:"samples"`
	}
	report := map[string]any{}
	out := map[string]map[string]any{}
	for _, m := range res.metrics {
		report[m.Name] = detail{m.Value, m.Unit, m.Samples}
		out[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	line, _ := json.Marshal(map[string]any{"report": report, "diagnostics": res.diag, "failures": res.failures})
	fmt.Println(string(line))
	final, _ := json.Marshal(map[string]any{
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   out,
	})
	fmt.Println(string(final))
}

func fatalf(format string, args ...any) {
	killChildren()
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// steadiness runs the workload k times in child processes with seeds
// seed, seed+1, … and prints every metric's median and quartile spread
// ((Q3-Q1)/median, quartiles as Python's statistics.quantiles(n=4)).
func steadiness(o options, trace, k int) {
	self, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	values := map[string][]float64{}
	units := map[string]string{}
	var names []string
	for i := 0; i < k; i++ {
		args := []string{"-server", o.server, "-workdir", o.workdir,
			"--workload", o.workload, "--seed", strconv.FormatInt(o.seed+int64(i), 10),
			"--seconds", strconv.FormatFloat(o.seconds, 'f', -1, 64), "--trace", strconv.Itoa(trace)}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		outb, err := cmd.Output()
		if err != nil {
			fatalf("repeat %d: %v", i, err)
		}
		lines := strings.Split(strings.TrimSpace(string(outb)), "\n")
		var r struct {
			Correct bool `json:"correct"`
			Failed  int  `json:"failed"`
			Metrics map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			fatalf("repeat %d: %v", i, err)
		}
		fmt.Fprintf(os.Stderr, "repeat %d seed %d: correct=%v failed=%d\n", i, o.seed+int64(i), r.Correct, r.Failed)
		for name, m := range r.Metrics {
			if _, seen := units[name]; !seen {
				names = append(names, name)
			}
			units[name] = m.Unit
			values[name] = append(values[name], m.Value)
		}
	}
	sort.Strings(names)
	summary := map[string]any{}
	for _, name := range names {
		vs := values[name]
		med := median(vs)
		q1, q3 := quartiles(vs)
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		fmt.Printf("%-40s %14.4f %-8s spread %6.3f  (n=%d)\n", name, med, units[name], spread, len(vs))
		summary[name] = map[string]any{"median": med, "unit": units[name], "spread": spread, "n": len(vs)}
	}
	line, _ := json.Marshal(map[string]any{"workload": o.workload, "steadiness": summary})
	fmt.Println(string(line))
}

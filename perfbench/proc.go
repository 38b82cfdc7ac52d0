package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"mqdp/internal/simhash"
)

// child is a started process of the system under test.
type child struct {
	cmd     *exec.Cmd
	pid     int
	started time.Time
	// done closes once the process has exited and its stderr is drained.
	done chan struct{}
	// addr is the listen address scraped from an mqdp-server log line.
	addr string
}

var (
	childrenMu sync.Mutex
	children   []*child
)

// killChildren SIGKILLs every child still running and waits for each.
func killChildren() {
	childrenMu.Lock()
	cs := children
	children = nil
	childrenMu.Unlock()
	for _, c := range cs {
		c.kill()
	}
}

var listenRe = regexp.MustCompile(`msg="mqdp-server listening" addr=(\S+)`)

// startChild execs bin with args. Every stderr line is handed to onLine
// (when non-nil) with its arrival time; the stream is drained until exit.
func startChild(bin string, args []string, onLine func(line string, at time.Time)) (*child, error) {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, done: make(chan struct{})}
	c.started = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c.pid = cmd.Process.Pid
	childrenMu.Lock()
	children = append(children, c)
	childrenMu.Unlock()
	go func() {
		br := bufio.NewReaderSize(stderr, 1<<16)
		for {
			line, err := br.ReadString('\n')
			if line != "" {
				if onLine != nil {
					onLine(strings.TrimRight(line, "\n"), time.Now())
				}
				if strings.Contains(line, "level=ERROR") || strings.HasPrefix(line, "panic") || strings.HasPrefix(line, "perfbench:") {
					fmt.Fprintln(os.Stderr, "child:", strings.TrimSpace(line))
				}
			}
			if err != nil {
				break
			}
		}
		_ = cmd.Wait()
		close(c.done)
	}()
	return c, nil
}

// startServer execs mqdp-server and waits until it logs its listen address.
func startServer(bin string, args []string) (*child, error) {
	addrc := make(chan string, 1)
	c, err := startChild(bin, args, func(line string, _ time.Time) {
		if m := listenRe.FindStringSubmatch(line); m != nil {
			select {
			case addrc <- m[1]:
			default:
			}
		}
	})
	if err != nil {
		return nil, err
	}
	select {
	case c.addr = <-addrc:
		return c, nil
	case <-c.done:
		return nil, fmt.Errorf("%s exited before listening", bin)
	case <-time.After(60 * time.Second):
		c.kill()
		return nil, fmt.Errorf("%s did not start listening within 60s", bin)
	}
}

// kill SIGKILLs the process and waits until it has exited.
func (c *child) kill() {
	select {
	case <-c.done:
		return
	default:
	}
	_ = syscall.Kill(c.pid, syscall.SIGKILL)
	<-c.done
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times on Linux.
const clockTick = 100.0

// procCPU returns the user+system CPU seconds consumed by pid.
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	s := string(b)
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("bad /proc stat line")
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat times")
	}
	return (ut + st) / clockTick, nil
}

// procHWM returns the peak resident set size (VmHWM) of pid in MiB.
func procHWM(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", pid)
}

// machine is the aggregate cpu line of /proc/stat.
type machine struct{ total, idle, steal float64 }

func readMachine() machine {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return machine{}
	}
	line := strings.SplitN(string(b), "\n", 2)[0]
	f := strings.Fields(line)
	var m machine
	for i, v := range f[1:] {
		x, _ := strconv.ParseFloat(v, 64)
		// user nice system idle iowait irq softirq steal guest guest_nice;
		// guest time is already counted in user.
		if i < 8 {
			m.total += x
		}
		switch i {
		case 3, 4:
			m.idle += x
		case 7:
			m.steal += x
		}
	}
	return m
}

func (m machine) stealPct(before machine) float64 {
	if d := m.total - before.total; d > 0 {
		return 100 * (m.steal - before.steal) / d
	}
	return 0
}

func (m machine) idlePct(before machine) float64 {
	if d := m.total - before.total; d > 0 {
		return 100 * (m.idle - before.idle) / d
	}
	return 0
}

// calibrate times a fixed single-threaded CPU job (SimHash of a fixed
// text, 20000 times) in milliseconds: a diagnostic of how fast the machine
// ran at the start and end of a run, never applied to any metric.
func calibrate() float64 {
	text := strings.Repeat("the quick brown fox jumps over the lazy dog ", 4)
	t := time.Now()
	var acc uint64
	for i := 0; i < 20000; i++ {
		acc += uint64(simhash.Compute(text))
	}
	if acc == 1 {
		fmt.Fprint(io.Discard, acc)
	}
	return float64(time.Since(t)) / float64(time.Millisecond)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks. xs need not be sorted; it is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// windowedQuantile splits xs (samples in time order) into contiguous
// windows of at least perWindow samples, takes the q-quantile of each and
// returns the median over the windows, so a burst of interference from a
// neighbour spoils one window's quantile rather than the run's.
func windowedQuantile(xs []float64, q float64, perWindow int) float64 {
	k := len(xs) / perWindow
	if k <= 1 {
		return quantile(xs, q)
	}
	qs := make([]float64, k)
	for w := range qs {
		qs[w] = quantile(xs[w*len(xs)/k:(w+1)*len(xs)/k], q)
	}
	return median(qs)
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	if m < 2 {
		if m == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		const n = 4
		j := i * (m + 1) / n
		if j < 1 {
			j = 1
		} else if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(3)
}

// seconds converts a duration list to milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

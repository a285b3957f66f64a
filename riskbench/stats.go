package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func share(n, total float64) float64 {
	if total == 0 {
		return 0
	}
	return n / total
}

// heapAllocBytes is the process's cumulative heap allocation, read
// without stopping the world.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// peakRSSMB is the process's peak resident set size (VmHWM), in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// stealMeter measures the share of the machine's CPU time that its
// host ran something else while this machine had work (the "steal"
// column of /proc/stat). On a shared virtual machine steal is the main
// source of run-to-run noise, so a run prints it for its timed loop.
type stealMeter struct{ total, steal float64 }

func cpuTicks() stealMeter {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealMeter{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	var m stealMeter
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		m.total += v
		if i == 7 { // user nice system idle iowait irq softirq steal
			m.steal = v
		}
	}
	return m
}

// share is the steal share of the CPU time since m was read.
func (m stealMeter) share() float64 {
	now := cpuTicks()
	return share(now.steal-m.steal, now.total-m.total)
}

// rssWindows tracks the process's peak resident set size (VmHWM) per
// one-second window of a timed loop. Starting it collects the heap and
// returns the freed memory to the OS, so the loop does not inherit the
// pages of the repeated set-ups before it; each window then restarts
// the kernel's peak counter. peak_rss_mb is the median of the window
// peaks: the peak of a typical second of the loop, which one late GC
// cycle's overshoot in a single window does not move, as it moved the
// peak of the whole loop. Where the kernel refuses the reset, a note
// says that peak_rss_mb covers the whole process.
type rssWindows struct {
	stop  chan struct{}
	peaks chan []float64
}

func startRSSWindows() *rssWindows {
	runtime.GC()
	debug.FreeOSMemory()
	if err := clearPeakRSS(); err != nil {
		fmt.Println("# peak_rss_mb covers the whole process, set-ups included:", err)
	}
	w := &rssWindows{stop: make(chan struct{}), peaks: make(chan []float64)}
	go func() {
		var peaks []float64
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
			case <-w.stop:
				w.peaks <- peaks
				return
			}
			if v, err := peakRSSMB(); err == nil {
				peaks = append(peaks, v)
			}
			_ = clearPeakRSS() // a refused reset was reported at the start
		}
	}()
	return w
}

// median stops the windows and returns the median window peak. The
// last, partial window is left out; a loop shorter than one window
// reports its whole peak.
func (w *rssWindows) median() (float64, error) {
	close(w.stop)
	peaks := <-w.peaks
	if len(peaks) == 0 {
		return peakRSSMB()
	}
	return median(peaks), nil
}

// clearPeakRSS restarts the kernel's peak-RSS counter (VmHWM).
func clearPeakRSS() error {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	_, err = f.Write([]byte("5"))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// timedMedian runs f reps times and returns the median wall time with
// f's last result. It is how set-up time is measured, steadier than a
// single set-up. Each repetition starts from a collected heap, so
// garbage from the previous one is not charged to it.
func timedMedian[T any](reps int, f func() (T, error)) (T, time.Duration, error) {
	var last T
	var ds []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		t0 := time.Now()
		v, err := f()
		ds = append(ds, float64(time.Since(t0)))
		if err != nil {
			return last, 0, err
		}
		last = v
	}
	return last, time.Duration(median(ds)), nil
}

// setupReps is how many times each workload's set-up is repeated.
const setupReps = 5

type facts struct {
	nproc, gomaxprocs int
	goVersion, commit string
}

func runFacts() facts {
	return facts{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commitID()}
}

// commitID names the code under test: the git commit when the checkout
// is a repository, otherwise a content hash of the program's Go sources.
func commitID() string {
	if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	h := sha256.New()
	for _, dir := range []string{"internal", "cmd"} {
		_ = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
				return nil // unreadable entries only weaken the hash
			}
			data, err := os.ReadFile(path)
			if err == nil {
				fmt.Fprintf(h, "%s\x00%d\x00", path, len(data))
				h.Write(data)
			}
			return nil
		})
	}
	return fmt.Sprintf("tree-%x", h.Sum(nil)[:6])
}

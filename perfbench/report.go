package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"
)

// report collects one run's outcome: operations attempted and failed,
// correctness-check failures (each counted as a failed operation), and the
// metric values. Workloads share it across goroutines, hence the mutex.
type report struct {
	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string
	values    map[string]float64
}

func newReport() *report { return &report{values: make(map[string]float64)} }

// op records one attempted operation and whether it failed.
func (r *report) op(err error) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failLocked(err.Error())
		return false
	}
	return true
}

// check records one correctness check: a false ok is a failed operation.
func (r *report) check(ok bool, format string, args ...any) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if !ok {
		r.failLocked(fmt.Sprintf(format, args...))
	}
	return ok
}

func (r *report) failLocked(msg string) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, msg)
	}
}

func (r *report) set(name string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.values[name] = v
}

func (r *report) get(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.values[name]
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result renders the final JSON object over the given metric set; metrics
// a workload did not set read 0.
func (r *report) result(set []metric) result {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metricValue, len(set))}
	for _, m := range set {
		out.Metrics[m.Name] = metricValue{Value: r.values[m.Name], Unit: m.Unit}
	}
	return out
}

// print writes the human-readable report (fingerprint, failures, every
// metric by name and unit) followed by the one-line JSON result, which is
// always the last line of standard output.
func (r *report) print(w io.Writer, fp fingerprint, set []metric) error {
	res := r.result(set)
	fmt.Fprintf(w, "host: %s\n", fp)
	if fp.StealPct >= 0 {
		fmt.Fprintf(w, "host CPU time stolen by the hypervisor during the run: %.1f%%\n", fp.StealPct)
	}
	r.mu.Lock()
	for _, f := range r.failures {
		fmt.Fprintf(w, "FAILED: %s\n", f)
	}
	r.mu.Unlock()
	fmt.Fprintf(w, "operations: %d attempted, %d failed\n", res.Attempted, res.Failed)
	for _, m := range set {
		fmt.Fprintf(w, "  %-36s %16.6g %s\n", m.Name, res.Metrics[m.Name].Value, m.Unit)
	}
	// The other set's values this run measured anyway (the untraced run's
	// per-cell rates, say) help tell which cell moved; they stay out of the
	// JSON result.
	fmt.Fprintf(w, "also measured:\n")
	for _, m := range append(endToEnd, perLayer...) {
		if _, in := res.Metrics[m.Name]; !in && r.get(m.Name) != 0 {
			fmt.Fprintf(w, "  %-36s %16.6g %s\n", m.Name, r.get(m.Name), m.Unit)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// fingerprint identifies the host a report was measured on.
type fingerprint struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	TempFS     string `json:"temp_fs"`
	// StealPct is the share of host CPU time stolen by the hypervisor while
	// the workload ran (-1 if unknown); high values mean noisy neighbours.
	StealPct float64 `json:"steal_pct"`
}

func hostFingerprint(tmp string) fingerprint {
	fp := fingerprint{GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Go: runtime.Version(), Commit: "unknown", TempFS: fsType(tmp), StealPct: -1}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				fp.Commit = s.Value
			}
		}
	}
	return fp
}

func (f fingerprint) String() string {
	return fmt.Sprintf("gomaxprocs=%d num_cpu=%d go=%s commit=%s temp_fs=%s",
		f.GOMAXPROCS, f.NumCPU, f.Go, f.Commit, f.TempFS)
}

// --- statistics --------------------------------------------------------------

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geomean is the geometric mean of positive values (0 if any is not).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// cell is one timed configuration of a workload: it accumulates the wall
// time of each operation (window, request) and the simulated cycles each
// one advanced.
type cell struct {
	cycles uint64 // simulated cycles per operation (0: not a stepping cell)
	lat    []float64
}

func (c *cell) add(d time.Duration) { c.lat = append(c.lat, ms(d)) }

// cps is the cell's median operation rate in simulated cycles per second.
func (c *cell) cps() float64 {
	m := median(c.lat)
	if m <= 0 || c.cycles == 0 {
		return 0
	}
	return float64(c.cycles) / (m / 1e3)
}

// setRate sets cycles_per_s: the geometric mean of the cells' median rates.
func setRate(rep *report, cells []*cell) {
	rates := make([]float64, len(cells))
	for i, c := range cells {
		rates[i] = c.cps()
	}
	rep.set("cycles_per_s", geomean(rates))
}

// hist is a log-bucketed latency histogram in milliseconds. Its memory is
// constant however many requests a run completes, so the benchmark's own
// bookkeeping does not grow with the program's speed (live_heap_mb would
// count it). Buckets are 0.5% wide; quantiles interpolate within a bucket.
type hist struct {
	n      uint64
	counts [histBuckets]uint64
}

const (
	histMin     = 1e-3 // ms; bucket 0 holds everything at or below it
	histGrowth  = 1.005
	histBuckets = 3300 // reaches past 10 s
)

func (h *hist) add(v float64) {
	i := 0
	if v > histMin {
		i = min(int(math.Log(v/histMin)/math.Log(histGrowth))+1, histBuckets-1)
	}
	h.counts[i]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := max(q*float64(h.n), 1)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			if i == 0 {
				return histMin
			}
			lo := histMin * math.Pow(histGrowth, float64(i-1))
			return lo + lo*(histGrowth-1)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	return histMin * math.Pow(histGrowth, histBuckets-1)
}

// liveHeapMB collects and returns the live heap in MB. Objects with
// finalizers (closed files and processes) outlive the collection that finds
// them unreachable, and so does what they reference, so it collects a few
// times with pauses for the finalizers to run and keeps the smallest heap.
func liveHeapMB() float64 {
	var ms runtime.MemStats
	live := uint64(math.MaxUint64)
	for i := 0; i < 4; i++ {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		live = min(live, ms.HeapAlloc)
		time.Sleep(10 * time.Millisecond)
	}
	return float64(live) / (1 << 20)
}

// gcPause returns the cumulative stop-the-world pause time so far.
func gcPause() time.Duration {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return time.Duration(ms.PauseTotalNs)
}

// writeJSONLines writes one JSON object per row, creating parent
// directories.
func writeJSONLines[T any](path string, rows []T) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var b strings.Builder
	for _, row := range rows {
		line, err := json.Marshal(row)
		if err != nil {
			return err
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

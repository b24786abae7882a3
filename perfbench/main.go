// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload of the crawl → label → fold pipeline and its durable
// dataset store, checks the outputs, and prints every metric by name
// and unit as one JSON object on the last line of standard output:
//
//	perfbench --workload crawl --seed 1 --seconds 20 --trace 0
//
// Workloads (CATALOGUE.md explains each metric and what should move it):
//
//	crawl        core.RunCrawl on the dispatch path, live fold, no store
//	crawl_store  the same crawl with the columnar store (-store shape)
//	store_query  cold-open a sealed store and serve a seeded query mix
//
// With --trace 0 the run measures the end-to-end metrics with no
// tracing. With --trace 1 it instead drives the same layers through
// their public entry points, times each call from outside the program,
// and reports per-layer metrics, a reconciliation row and a
// capture-and-replay decomposition of the hot per-page stages.
//
// The seed selects the generated world of the crawl workloads and the
// query mix of store_query; the program sees only the generated inputs.
// Human-readable detail goes to standard error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The world's shape: the pre-patch era crawled with Chrome 57 by no
// more workers than the host has cores.
const (
	worldSeedBase = 20180411
	numSites      = 300
	pagesPerSite  = 8
	maxWorkers    = 2
	// setupReps is how many times each run repeats its set-up; setup_s
	// is the median.
	setupReps = 3
	// replay_s is the median of many cold read-backs: one read-back's
	// time varies by a factor of two or more within a run, with garbage
	// collection. store_query makes at least replayReps of them until
	// replayBudget is spent; the crawl workloads make at least
	// replayRepsPerCrawl after each timed crawl until replayPerCrawl is
	// spent, so that they are spread over the run as the crawls are.
	replayReps         = 9
	replayBudget       = 5 * time.Second
	replayRepsPerCrawl = 2
	replayPerCrawl     = 300 * time.Millisecond
)

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run carries one invocation's settings and its verdict.
type run struct {
	workload string
	seed     int64
	// worldSeed is the generated world's seed (worldSeedFor).
	worldSeed int64
	seconds   time.Duration
	workers   int
	dir       string // scratch state, removed at exit

	values    map[string]float64
	attempted int64
	failed    int64
	problems  []string
}

// check records a failed output check; any failure makes the run
// incorrect.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		msg := fmt.Sprintf(format, args...)
		r.problems = append(r.problems, msg)
		logf("CHECK FAILED: %s", msg)
	}
}

func (r *run) set(name string, v float64) { r.values[name] = v }

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

func main() {
	workload := flag.String("workload", "", "crawl | crawl_store | store_query")
	seed := flag.Int64("seed", 1, "input seed: selects the generated world")
	seconds := flag.Int("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end measurement")
	flag.Parse()
	if err := mainErr(*workload, *seed, *seconds, *trace); err != nil {
		logf("perfbench: %v", err)
		os.Exit(1)
	}
}

func mainErr(workload string, seed int64, seconds, trace int) error {
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	base := os.Getenv("PERFBENCH_WORK")
	if base == "" {
		base = ".bench_build"
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	r := &run{
		workload:  workload,
		seed:      seed,
		worldSeed: worldSeedFor(workload, seed),
		seconds:   time.Duration(seconds) * time.Second,
		workers:   min(maxWorkers, runtime.NumCPU()),
		dir:       dir,
		values:    map[string]float64{},
	}
	ctx := context.Background()
	defs := endToEnd
	switch {
	case trace == 1:
		if !knownWorkload(workload) {
			return fmt.Errorf("unknown workload %q", workload)
		}
		defs = perLayer
		err = r.traced(ctx, base)
	case workload == "crawl":
		err = r.crawl(ctx, false)
	case workload == "crawl_store":
		err = r.crawl(ctx, true)
	case workload == "store_query":
		err = r.storeQuery(ctx)
	default:
		return fmt.Errorf("unknown workload %q (have crawl, crawl_store, store_query)", workload)
	}
	if err != nil {
		return err
	}

	out := result{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			return fmt.Errorf("internal: metric %s was not measured", d.name)
		}
		out.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		logf("%-36s %14.4f %s", d.name, v, d.unit)
	}
	if out.Attempted < 1 {
		return fmt.Errorf("no operations attempted")
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func knownWorkload(w string) bool {
	return w == "crawl" || w == "crawl_store" || w == "store_query"
}

// worldSeedFor picks the generated world's seed. The crawl workloads
// crawl the world of the run's seed. store_query always serves the
// pinned world, the one of seed 0, and takes only its query mix from
// the seed: query cost follows the world's number of observed domains,
// which varies by a quarter between worlds and does not average out in
// bigger ones, so a seed-made world would swamp what the workload
// measures (CATALOGUE.md, notes).
func worldSeedFor(workload string, seed int64) int64 {
	if workload == "store_query" {
		return worldSeedBase
	}
	return worldSeedBase + seed
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS hands the heap the set-up freed back to the kernel and
// restarts the resident-set high-water mark, so that what the set-up
// held resident does not count in the timed part.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return clearPeakRSS()
}

// clearPeakRSS restarts the process's resident-set high-water mark at
// its current resident set.
func clearPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) since
// the last clearPeakRSS.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// diskBytes sums the sizes of the regular files under dir.
func diskBytes(dir string) int64 {
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, ierr := d.Info(); ierr == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total
}

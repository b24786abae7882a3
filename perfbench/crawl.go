package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/analysis"
	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/webgen"
)

// crawlSpec is the pinned crawl: pre-patch era, Chrome 57.
var crawlSpec = core.CrawlSpec{Name: "perfbench", Era: webgen.EraPrePatch, CrawlIndex: 0, BrowserVersion: 57}

// crawlMeta names the dataset the crawl produces.
var crawlMeta = analysis.DatasetMeta{Name: crawlSpec.Name, Era: crawlSpec.Era.String(), CrawlIndex: crawlSpec.CrawlIndex}

// crawlOptions is the wscrawl -checkpoint shape, or with store the
// wscrawl -store shape, over the pinned world.
func (r *run) crawlOptions(stateDir string, store bool) core.Options {
	return core.Options{
		Seed:          r.worldSeed,
		NumPublishers: numSites,
		Workers:       r.workers,
		PagesPerSite:  pagesPerSite,
		Store:         store,
		Dispatch:      &core.DispatchOptions{StateDir: stateDir},
	}
}

// crawlSample is one untraced core.RunCrawl of the pinned world.
type crawlSample struct {
	wall, cpu          time.Duration
	pages, attempted   int64
	failed             int64
	mallocs, alloc     uint64
	gcCycles           uint32
	gcPause            time.Duration
	disk               int64
	digest             [32]byte
	dataset            *analysis.Dataset
	stateDir           string
	spoolDir, storeDir string
}

// datasetDigest hashes a dataset's canonical JSON bytes.
func datasetDigest(ds *analysis.Dataset) ([32]byte, []byte) {
	var buf bytes.Buffer
	if err := ds.WriteJSON(&buf); err != nil {
		return [32]byte{}, nil
	}
	return sha256.Sum256(buf.Bytes()), buf.Bytes()
}

// crawlOnce runs one crawl into a fresh state directory under the run's
// scratch directory and measures it. Only the RunCrawl call is inside
// the timed and counted window.
func (r *run) crawlOnce(ctx context.Context, store bool, n int) (crawlSample, error) {
	state := filepath.Join(r.dir, fmt.Sprintf("state-%d", n))
	opts := r.crawlOptions(state, store)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, t0 := cpuTime(), time.Now()
	res, err := core.RunCrawl(ctx, opts, crawlSpec)
	wall, cpu := time.Since(t0), cpuTime()-cpu0
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return crawlSample{}, err
	}
	s := crawlSample{
		wall: wall, cpu: cpu,
		pages:     res.Stats.Pages,
		attempted: res.Stats.Pages + res.Stats.PageErrors,
		failed:    res.Stats.PageErrors + res.Stats.SiteErrors,
		mallocs:   ms1.Mallocs - ms0.Mallocs,
		alloc:     ms1.TotalAlloc - ms0.TotalAlloc,
		gcCycles:  ms1.NumGC - ms0.NumGC,
		gcPause:   time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs),
		disk:      diskBytes(state),
		dataset:   res.Dataset,
		stateDir:  state,
		spoolDir:  filepath.Join(state, "spool-crawl0"),
		storeDir:  filepath.Join(state, "store-crawl0"),
	}
	if res.Dispatch != nil {
		s.failed += int64(len(res.Dispatch.FailedSites))
	}
	if res.Dataset == nil {
		return s, fmt.Errorf("crawl returned no dataset")
	}
	s.digest, _ = datasetDigest(res.Dataset)
	return s, nil
}

func shapeName(store bool) string {
	if store {
		return "crawl_store"
	}
	return "crawl"
}

// crawl measures the crawl or crawl_store workload. Set-up crawls the
// world in the other shape, which both warms the process and gives the
// reference bytes the timed crawls must reproduce.
func (r *run) crawl(ctx context.Context, store bool) error {
	var setup []float64
	var ref [32]byte
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		s, err := r.crawlOnce(ctx, !store, -1-i)
		if err != nil {
			return fmt.Errorf("set-up crawl: %w", err)
		}
		os.RemoveAll(s.stateDir)
		setup = append(setup, time.Since(t0).Seconds())
		r.check(s.failed == 0, "set-up %s crawl: %d failed operations in a fault-free world", shapeName(!store), s.failed)
		if i == 0 {
			ref = s.digest
		}
		r.check(s.digest == ref, "set-up %s crawl %d: dataset bytes differ from the first", shapeName(!store), i)
	}
	r.set("setup_s", median(setup))
	if err := resetPeakRSS(); err != nil {
		return err
	}

	var samples []crawlSample
	var rss []float64    // each crawl's peak resident set
	var replay []float64 // every read-back's time
	deadline := time.Now().Add(r.seconds)
	for n := 0; n < 3 || time.Now().Before(deadline); n++ {
		if err := clearPeakRSS(); err != nil {
			return err
		}
		s, err := r.crawlOnce(ctx, store, n)
		if err != nil {
			return fmt.Errorf("crawl %d: %w", n, err)
		}
		peak, err := peakRSSMB()
		if err != nil {
			return err
		}
		rss = append(rss, peak)
		r.attempted += s.attempted
		r.failed += s.failed
		r.check(s.failed == 0, "crawl %d: %d failed operations in a fault-free world", n, s.failed)
		r.check(s.digest == ref, "crawl %d: %s dataset bytes differ from the %s set-up crawl", n, shapeName(store), shapeName(!store))

		// Read the crawl's durable state back into a dataset, cold, the
		// way a resumed crawl or wsquery does. The read-backs follow every
		// crawl, so that like the crawls they sample the whole run.
		for i, stop := 0, time.Now().Add(replayPerCrawl); i < replayRepsPerCrawl || time.Now().Before(stop); i++ {
			runtime.GC()
			t0 := time.Now()
			ds, err := readBack(s, store)
			replay = append(replay, time.Since(t0).Seconds())
			if err != nil {
				return fmt.Errorf("read back: %w", err)
			}
			d, _ := datasetDigest(ds)
			r.check(d == ref, "crawl %d, read-back %d of the %s state: dataset bytes differ from the crawl's", n, i, shapeName(store))
		}
		os.RemoveAll(s.stateDir)
		s.dataset = nil
		samples = append(samples, s)
	}
	last := samples[len(samples)-1]
	r.set("replay_s", median(replay))
	logf("replay_s: median of %d cold read-backs", len(replay))

	var rate, cpu, allocs, bytesPer, disk, lat []float64
	for _, s := range samples {
		rate = append(rate, float64(s.pages)/s.wall.Seconds())
		cpu = append(cpu, perPage(us(s.cpu), s.pages))
		allocs = append(allocs, perPage(float64(s.mallocs), s.pages))
		bytesPer = append(bytesPer, perPage(float64(s.alloc), s.pages))
		disk = append(disk, perPage(float64(s.disk), s.pages))
		lat = append(lat, us(s.wall))
	}
	ls := summarize(lat)
	r.set("ops_per_s", median(rate))
	r.set("cpu_us_per_op", median(cpu))
	r.set("allocs_per_op", median(allocs))
	r.set("alloc_bytes_per_op", median(bytesPer))
	r.set("disk_bytes_per_page", median(disk))
	r.set("peak_rss_mb", median(rss))
	r.set("latency_p50_us", ls.p50)
	r.set("latency_tail_us", ls.tail)
	logf("%s: %d crawls of %d pages, %d workers; latency tail is p%.1f of %d crawls", shapeName(store), len(samples), last.pages, r.workers, 100*ls.tailQ, ls.n)
	return nil
}

// readBack rebuilds the dataset from a finished crawl's durable state:
// the sealed store for crawl_store, the spool shards for crawl.
func readBack(s crawlSample, store bool) (*analysis.Dataset, error) {
	if store {
		st, err := colstore.OpenRead(s.storeDir)
		if err != nil {
			return nil, err
		}
		ds, _ := st.Dataset()
		return ds, nil
	}
	paths, err := filepath.Glob(filepath.Join(s.spoolDir, "shard-*.jsonl"))
	if err != nil || len(paths) == 0 {
		return nil, fmt.Errorf("no spool shards under %s", s.spoolDir)
	}
	ds, _, err := analysis.MergeShards(crawlMeta, paths)
	return ds, err
}

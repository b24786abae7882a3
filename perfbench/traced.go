package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"

	"repro/internal/colstore"
)

// traced is the --trace 1 run. It is the same for every workload: one
// traced composition covers every layer the three workloads exercise.
// Its parts, in order:
//
//  1. Two untraced crawl_store-shaped core.RunCrawl calls: the reference
//     dataset bytes, untraced CPU per page and the runtime's GC figures.
//  2. A capture pass: the traced composition once, keeping copies of
//     the documents, scripts, traces and records it saw. Its timings
//     are discarded.
//  3. Timed traced passes for half the run's seconds.
//  4. Cold replay and in-process queries of the last pass's store.
//  5. The decomposition pass over the captured inputs.
func (r *run) traced(ctx context.Context, base string) error {
	var untraced []crawlSample
	for i := 0; i < 2; i++ {
		s, err := r.crawlOnce(ctx, true, -1-i)
		if err != nil {
			return fmt.Errorf("untraced crawl: %w", err)
		}
		r.check(s.failed == 0, "untraced crawl: %d failed operations in a fault-free world", s.failed)
		s.dataset = nil
		untraced = append(untraced, s)
	}
	ref := untraced[0].digest
	r.check(untraced[1].digest == ref, "untraced crawls: dataset bytes differ between runs")

	capt, err := r.tracedPass(ctx, 0, true)
	if err != nil {
		return fmt.Errorf("capture pass: %w", err)
	}
	r.checkPass(capt, ref, "capture pass")

	var passes []*passResult
	deadline := time.Now().Add(r.seconds / 2)
	for n := 1; n == 1 || time.Now().Before(deadline); n++ {
		p, err := r.tracedPass(ctx, n, false)
		if err != nil {
			return fmt.Errorf("traced pass %d: %w", n, err)
		}
		r.checkPass(p, ref, fmt.Sprintf("traced pass %d", n))
		r.attempted += p.attempted
		r.failed += p.failed
		passes = append(passes, p)
	}
	last := passes[len(passes)-1]
	r.layerMetrics(passes, untraced)

	if err := r.readSide(last); err != nil {
		return err
	}
	r.decompose(capt.capture)

	path := filepath.Join(base, "perfbench-spans-"+r.workload+".tsv")
	if err := writeSpans(path, passes); err != nil {
		return err
	}
	logf("traced: %d timed passes of %d pages; spans written to %s", len(passes), last.pages, path)
	return nil
}

// checkPass checks a traced pass's outputs against the untraced crawl:
// the live fold and the store must both give the untraced bytes, with
// no failed page or site.
func (r *run) checkPass(p *passResult, ref [32]byte, what string) {
	r.check(p.failed == 0, "%s: %d failed operations in a fault-free world", what, p.failed)
	r.check(p.folded == ref, "%s: folded dataset bytes differ from the untraced crawl's", what)
	r.check(p.stored == ref, "%s: store dataset bytes differ from the untraced crawl's", what)
}

// layerMetrics reduces the timed passes' spans to per-layer metrics and
// the reconciliation row.
func (r *run) layerMetrics(passes []*passResult, untraced []crawlSample) {
	var pages, sites, requests, sockets, frames, frameLen, fetchBody, spoolBytes, storeBytes int64
	var laneTime, cpu time.Duration
	var dur, self [numLayers]int64
	var count [numLayers]int64
	var fetchUs, siteMs, flushMs, sealMs, worldS, parseMs, seals, segments []float64
	for _, p := range passes {
		pages += p.pages
		sites += p.sites
		requests += p.requests
		sockets += p.sockets
		frames += p.frames
		frameLen += p.frameLen
		fetchBody += p.fetchBody
		spoolBytes += p.spoolBytes
		storeBytes += p.storeBytes
		laneTime += p.laneTime
		cpu += p.cpu
		seals = append(seals, float64(p.seals))
		segments = append(segments, float64(p.segments))
		selfOf := selfTimes(p.spans)
		for _, s := range p.spans {
			d := s.end - s.start
			dur[s.name] += d
			self[s.name] += selfOf[s.id]
			count[s.name]++
			ms := float64(d) / 1e6
			switch s.name {
			case lFetch:
				fetchUs = append(fetchUs, ms*1000)
			case lSite:
				siteMs = append(siteMs, ms)
			case lFlush:
				flushMs = append(flushMs, ms)
			case lSeal:
				sealMs = append(sealMs, ms)
			case lWorld:
				worldS = append(worldS, ms/1000)
			case lParse:
				parseMs = append(parseMs, ms)
			}
		}
	}
	perPageUs := func(ns int64) float64 { return perPage(float64(ns)/1e3, pages) }
	perPageN := func(n int64) float64 { return perPage(float64(n), pages) }

	r.set("webgen.world_build_s", median(worldS))
	r.set("filterlist.parse_ms", median(parseMs))
	r.set("webserver.fetch_us_per_page", perPageUs(dur[lFetch]))
	r.set("webserver.fetches_per_page", perPageN(count[lFetch]))
	fetch := summarize(fetchUs)
	r.set("webserver.fetch_us_p99", fetch.tail)
	r.set("webserver.body_bytes_per_page", perPageN(fetchBody))
	r.set("browser.visit_self_us_per_page", perPageUs(self[lVisit]))
	r.set("browser.requests_per_page", perPageN(requests))
	r.set("browser.sockets_per_page", perPageN(sockets))
	r.set("wsproto.frames_per_page", perPageN(frames))
	r.set("wsproto.frame_bytes_per_page", perPageN(frameLen))
	site := summarize(siteMs)
	r.set("crawler.site_ms_p50", site.p50)
	r.set("crawler.site_ms_p99", site.tail)
	r.set("crawler.pages_per_site", perPage(float64(pages), sites))
	r.set("crawler.self_us_per_page", perPageUs(self[lSite]+self[lOnPage]))
	r.set("analysis.record_us_per_page", perPageUs(dur[lRecord]))
	r.set("analysis.fold_us_per_page", perPageUs(dur[lFold]))
	r.set("dispatch.append_us_per_page", perPageUs(dur[lAppend]))
	r.set("dispatch.flush_ms_p50", median(flushMs))
	r.set("dispatch.spool_bytes_per_page", perPageN(spoolBytes))
	r.set("colstore.ingest_us_per_page", perPageUs(dur[lIngest]))
	r.set("colstore.seal_ms_p50", median(sealMs))
	r.set("colstore.seals", median(seals))
	r.set("colstore.segments", median(segments))
	r.set("colstore.bytes_per_page", perPageN(storeBytes))

	var gcCycles, gcPause, untracedCPU []float64
	for _, s := range untraced {
		gcCycles = append(gcCycles, perPage(1000*float64(s.gcCycles), s.pages))
		gcPause = append(gcPause, float64(s.gcPause)/1e6)
		untracedCPU = append(untracedCPU, perPage(us(s.cpu), s.pages))
	}
	r.set("runtime.gc_cycles_per_kpage", median(gcCycles))
	r.set("runtime.gc_pause_ms", median(gcPause))

	var selfSum int64
	for _, v := range self {
		selfSum += v
	}
	r.set("reconcile.self_us_per_page", perPageUs(selfSum))
	r.set("reconcile.worker_wall_us_per_page", perPage(us(laneTime), pages))
	r.set("reconcile.self_share", float64(selfSum)/float64(laneTime))
	traced := perPage(us(cpu), pages)
	r.set("reconcile.traced_cpu_us_per_page", traced)
	r.set("reconcile.untraced_cpu_us_per_page", median(untracedCPU))
	r.set("reconcile.cpu_residual_us_per_page", median(untracedCPU)-traced)

	logf("%-20s %12s %12s %8s", "layer", "self us/pg", "total us/pg", "share")
	for l := layer(0); l < numLayers; l++ {
		logf("%-20s %12.2f %12.2f %7.1f%%", l, perPageUs(self[l]), perPageUs(dur[l]), 100*float64(self[l])/float64(laneTime))
	}
	logf("fetch latency tail is p%.2f of %d fetches; site tail is p%.1f of %d sites", 100*fetch.tailQ, fetch.n, 100*site.tailQ, site.n)
}

// readSide times the read side of the last pass's sealed store: cold
// replay of its segments, and each query kind served in process.
func (r *run) readSide(p *passResult) error {
	var replay []float64
	var st *colstore.Store
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		s, err := colstore.OpenRead(p.storeDir)
		if err != nil {
			return err
		}
		ds, _ := s.Dataset()
		dt := time.Since(t0)
		d, _ := datasetDigest(ds)
		r.check(d == p.folded, "replay %d: store dataset bytes differ from the fold's", i)
		replay = append(replay, perPage(us(dt), int64(s.Stats().Pages)))
		st = s
	}
	r.set("colstore.replay_us_per_record", median(replay))

	h := colstore.NewHandler(st)
	mix := queryMix(r.seed, p.dataset, p.storeDir)
	lat := map[string][]float64{}
	deadline := time.Now().Add(r.seconds / 10)
	for rep := 0; rep == 0 || time.Now().Before(deadline); rep++ {
		for i := range mix {
			q := &mix[i]
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodGet, q.path, nil)
			t0 := time.Now()
			h.ServeHTTP(rec, req)
			lat[q.kind] = append(lat[q.kind], us(time.Since(t0)))
			if rep == 0 {
				err := q.checkAnswer(rec.Code, rec.Body.Bytes())
				r.check(err == nil, "in-process query: %v", err)
			}
		}
	}
	for _, kind := range []string{"tables", "sites", "chains", "labels", "dataset", "stats"} {
		r.set("colstore.query_us."+kind, median(lat[kind]))
	}
	return nil
}

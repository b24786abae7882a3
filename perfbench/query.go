package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/colstore"
)

// queryWindows is how many equal windows of the measured period the
// query timings are medians over.
const queryWindows = 10

// queryWarmup is the untimed load before the measured period.
const queryWarmup = 5 * time.Second

// query is one request of the fixed mix and how to check its answer.
type query struct {
	kind string // tables | sites | chains | labels | dataset | stats
	path string
	// want, when non-nil, is the exact expected body. The mix computes
	// it from the crawl's dataset with the analysis package; acceptAnswers
	// sets it for the rest.
	want []byte
	// verify, when non-nil, checks a body against the crawl's dataset.
	verify func(body []byte) error
}

// encodeLikeHandler encodes v the way the query service does.
func encodeLikeHandler(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// The mix is mixRounds rounds. A round sends the requests of each of
// the query service's documented callers once; the seed draws the
// parameters a round's requests take (CATALOGUE.md cites each caller).
// mixRounds is a multiple of five, so that every table is the live
// /tables request equally often.
const (
	mixRounds  = 20
	rankWindow = 30 // ranks a /sites range query spans
)

// queryMix builds the seeded query mix over the crawl's dataset and the
// sealed store in storeDir that serves it. A round is:
//
//   - wsquery -table N, for N = 1..5: the rendered text of every table;
//   - wsquery -dataset: /dataset;
//   - the documented smoke check of wsquery -addr: /storestats,
//     /tables?table=1&format=text, /chains?groupBy=pair, /refresh and
//     /dataset;
//   - the live endpoints wscoordd -query-addr announces: /dataset,
//     /tables and /chains;
//   - the /sites, /labels and filtered /chains queries the query
//     service documents but no caller sends. Their share is a guess.
//
// Tables, sites, chain listings and the dataset are computed
// independently from the crawl's dataset and compared byte for byte;
// pair groups, labels and store statistics are checked structurally.
func queryMix(seed int64, ds *analysis.Dataset, storeDir string) []query {
	rng := rand.New(rand.NewSource(seed))
	pick := func(from []analysis.SiteSummary) analysis.SiteSummary { return from[rng.Intn(len(from))] }
	sites := func(keep func(analysis.SiteSummary) bool) []byte {
		out := []analysis.SiteSummary{}
		for _, s := range ds.Sites {
			if keep(s) {
				out = append(out, s)
			}
		}
		return encodeLikeHandler(out)
	}
	chains := func(keep func(*analysis.SocketRecord) bool) []byte {
		res := colstore.ChainsResult{}
		for i := range ds.Sockets {
			if keep(&ds.Sockets[i]) {
				res.Total++
				res.Sockets = append(res.Sockets, ds.Sockets[i])
			}
		}
		return encodeLikeHandler(res)
	}
	var withSockets []analysis.SiteSummary
	for _, s := range ds.Sites {
		if s.Sockets > 0 {
			withSockets = append(withSockets, s)
		}
	}
	aa := ds.AASet()
	textTable := func(n int) query {
		_, text := table(n, ds)
		return query{kind: "tables", path: fmt.Sprintf("/tables?table=%d&format=text", n), want: []byte(text)}
	}
	jsonTable := func(n int) query {
		rows, _ := table(n, ds)
		return query{kind: "tables", path: fmt.Sprintf("/tables?table=%d", n), want: encodeLikeHandler(rows)}
	}
	_, wantDataset := datasetDigest(ds)
	dataset := query{kind: "dataset", path: "/dataset", want: wantDataset}
	stats := storeStats(ds, storeDir)
	allChains := query{kind: "chains", path: "/chains", want: chains(func(*analysis.SocketRecord) bool { return true })}
	pairs := query{kind: "chains", path: "/chains?groupBy=pair", verify: chainsByPair(ds)}
	aaChains := query{kind: "chains", path: "/chains?aa=any",
		want: chains(func(s *analysis.SocketRecord) bool { return aa[s.InitiatorDomain] || aa[s.ReceiverDomain] })}
	onlyAA := query{kind: "labels", path: "/labels?onlyAA=true", verify: labelsAA(aa)}

	var mix []query
	liveTable := rng.Intn(5)
	for round := 0; round < mixRounds; round++ {
		for n := 1; n <= 5; n++ {
			mix = append(mix, textTable(n))
		}
		mix = append(mix, dataset)
		mix = append(mix,
			query{kind: "stats", path: "/storestats", verify: stats},
			textTable(1),
			pairs,
			query{kind: "stats", path: "/refresh", verify: stats},
			dataset,
		)
		mix = append(mix, dataset, jsonTable(1+(liveTable+round)%5), allChains)

		s := pick(ds.Sites)
		lo := pick(ds.Sites[:len(ds.Sites)-rankWindow+1]).Rank
		hi := lo + rankWindow - 1
		w := pick(withSockets)
		d := ds.AADomains[rng.Intn(len(ds.AADomains))]
		mix = append(mix,
			query{kind: "sites", path: "/sites?domain=" + url.QueryEscape(s.Domain),
				want: sites(func(x analysis.SiteSummary) bool { return x.Domain == s.Domain })},
			query{kind: "sites", path: fmt.Sprintf("/sites?minRank=%d&maxRank=%d", lo, hi),
				want: sites(func(x analysis.SiteSummary) bool { return x.Rank >= lo && x.Rank <= hi })},
			query{kind: "chains", path: "/chains?site=" + url.QueryEscape(w.Domain),
				want: chains(func(x *analysis.SocketRecord) bool { return x.Site == w.Domain })},
			aaChains,
			query{kind: "labels", path: "/labels?domain=" + url.QueryEscape(d), verify: labelsDomain(d, aa)},
			onlyAA,
		)
	}
	return mix
}

// table computes table n (1..5) from the dataset the way the query
// service does, top rows at its default of 10: the rows and their
// rendered text.
func table(n int, ds *analysis.Dataset) (any, string) {
	switch n {
	case 1:
		rows := analysis.Table1(ds)
		return rows, analysis.RenderTable1(rows)
	case 2:
		rows := analysis.Table2(10, ds)
		return rows, analysis.RenderTable2(rows)
	case 3:
		rows := analysis.Table3(10, ds)
		return rows, analysis.RenderTable3(rows)
	case 4:
		rows := analysis.Table4(10, ds)
		return rows, analysis.RenderTable4(rows)
	default:
		res := analysis.Table5(ds)
		return res, analysis.RenderTable5(res)
	}
}

// chainsByPair checks the initiator → receiver groups against the
// dataset's sockets: every pair once, with its socket and blocked
// counts, and the total.
func chainsByPair(ds *analysis.Dataset) func([]byte) error {
	type count struct{ sockets, blocked int }
	want := map[string]count{}
	for _, s := range ds.Sockets {
		key := s.InitiatorDomain + " -> " + s.ReceiverDomain
		c := want[key]
		c.sockets++
		if s.ChainBlocked {
			c.blocked++
		}
		want[key] = c
	}
	return func(body []byte) error {
		var res colstore.ChainsResult
		if err := json.Unmarshal(body, &res); err != nil {
			return err
		}
		if res.Total != len(ds.Sockets) {
			return fmt.Errorf("total %d, dataset has %d sockets", res.Total, len(ds.Sockets))
		}
		if len(res.Groups) != len(want) {
			return fmt.Errorf("%d pair groups, dataset has %d pairs", len(res.Groups), len(want))
		}
		seen := map[string]bool{}
		for _, g := range res.Groups {
			c, ok := want[g.Key]
			if !ok || seen[g.Key] || c != (count{g.Sockets, g.Blocked}) {
				return fmt.Errorf("pair %q: %d sockets, %d blocked; dataset has %d, %d", g.Key, g.Sockets, g.Blocked, c.sockets, c.blocked)
			}
			seen[g.Key] = true
		}
		return nil
	}
}

// storeStats checks /storestats and /refresh of a sealed store opened
// read-only: its directory, every sealed segment file, the dataset's
// pages, and nothing pending or duplicated.
func storeStats(ds *analysis.Dataset, storeDir string) func([]byte) error {
	segs, _ := filepath.Glob(filepath.Join(storeDir, "seg-*.col"))
	pages := 0
	for _, s := range ds.Sites {
		pages += s.Pages
	}
	return func(body []byte) error {
		var st colstore.Stats
		if err := json.Unmarshal(body, &st); err != nil {
			return err
		}
		if st.Dir != storeDir || !st.ReadOnly || st.Segments != len(segs) || st.Pages != pages || st.Pending != 0 || st.Dups != 0 {
			return fmt.Errorf("stats %+v; want dir %s, read-only, %d segments, %d pages, none pending or duplicated", st, storeDir, len(segs), pages)
		}
		return nil
	}
}

// labelsAA checks that the A&A label rows are exactly the dataset's D′.
func labelsAA(aa map[string]bool) func([]byte) error {
	return func(body []byte) error {
		var rows []colstore.LabelRow
		if err := json.Unmarshal(body, &rows); err != nil {
			return err
		}
		if len(rows) != len(aa) {
			return fmt.Errorf("%d A&A label rows, dataset D′ has %d domains", len(rows), len(aa))
		}
		for _, row := range rows {
			if !row.AA || !aa[row.Domain] {
				return fmt.Errorf("label row %s is not in the dataset's D′", row.Domain)
			}
		}
		return nil
	}
}

// labelsDomain checks one domain's verdict against the dataset's D′.
func labelsDomain(d string, aa map[string]bool) func([]byte) error {
	return func(body []byte) error {
		var rows []colstore.LabelRow
		if err := json.Unmarshal(body, &rows); err != nil {
			return err
		}
		if len(rows) != 1 || rows[0].Domain != d || rows[0].AA != aa[d] {
			return fmt.Errorf("labels for %s: %d rows, want one with aa=%v", d, len(rows), aa[d])
		}
		return nil
	}
}

// checkAnswer verifies one response against its query.
func (q *query) checkAnswer(status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d", q.path, status)
	}
	if q.want != nil && !bytes.Equal(body, q.want) {
		return fmt.Errorf("%s: answer differs from the analysis package's", q.path)
	}
	if q.verify != nil {
		if err := q.verify(body); err != nil {
			return fmt.Errorf("%s: %w", q.path, err)
		}
	}
	return nil
}

// queryServer is a cold-opened store served on loopback.
type queryServer struct {
	srv  *http.Server
	base string
	done chan struct{}
}

// serveStore opens the sealed store read-only and serves it.
func serveStore(dir string) (*queryServer, error) {
	st, err := colstore.OpenRead(dir)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	qs := &queryServer{
		srv:  &http.Server{Handler: colstore.NewHandler(st), ReadHeaderTimeout: 10 * time.Second},
		base: "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(qs.done)
		_ = qs.srv.Serve(ln)
	}()
	return qs, nil
}

// close stops the server and waits for it.
func (qs *queryServer) close() {
	_ = qs.srv.Close()
	<-qs.done
}

// get fetches one path and reads the whole body.
func get(c *http.Client, u string) (int, []byte, error) {
	resp, err := c.Get(u)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// acceptAnswers fetches every distinct path of the mix once, checks the
// answer in full and keeps it as the query's expected body. The store is
// read-only, so every later answer to a path must equal the kept bytes:
// the load periods check each answer with one comparison and do not time
// the benchmark's own decoding.
func (r *run) acceptAnswers(client *http.Client, base string, mix []query) error {
	kept := map[string][]byte{}
	for i := range mix {
		q := &mix[i]
		body, ok := kept[q.path]
		if !ok {
			status, b, err := get(client, base+q.path)
			if err != nil {
				return err
			}
			r.attempted++
			if err := q.checkAnswer(status, b); err != nil {
				r.failed++
				r.check(false, "query: %v", err)
			}
			body, kept[q.path] = b, b
		}
		q.want, q.verify = body, nil
	}
	logf("store_query: %d queries in the mix, %d distinct, answers checked and kept", len(mix), len(kept))
	return nil
}

// clientResult is one closed-loop client's record of a load period.
type clientResult struct {
	lat, done        []float64 // latency (us), completion (s since start)
	attempted, fails int64
	firstErr         error
}

// queryLoad runs one closed-loop client per worker from start for d,
// each sending the mix over and over and checking every answer. Each
// pass through the mix is in a fresh order drawn from the seed, a
// different one for each client: with one fixed order the clients
// would keep sending the same request at the same time, and how often
// two /dataset answers collide would follow their phase or the seed.
func (r *run) queryLoad(client *http.Client, base string, mix []query, start time.Time, d time.Duration) []clientResult {
	results := make([]clientResult, r.workers)
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := range results {
		rng := rand.New(rand.NewSource(r.seed*64 + int64(c)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := &results[c]
			var order []int
			for i := 0; time.Now().Before(deadline); i++ {
				if i%len(mix) == 0 {
					order = rng.Perm(len(mix))
				}
				q := &mix[order[i%len(mix)]]
				qt := time.Now()
				status, body, err := get(client, base+q.path)
				end := time.Now()
				res.lat = append(res.lat, us(end.Sub(qt)))
				res.done = append(res.done, end.Sub(start).Seconds())
				res.attempted++
				if err == nil {
					err = q.checkAnswer(status, body)
				}
				if err != nil {
					res.fails++
					if res.firstErr == nil {
						res.firstErr = err
					}
				}
			}
		}()
	}
	wg.Wait()
	return results
}

// storeQuery measures the store_query workload. Set-up crawls the
// pinned world into a sealed store. The timed part cold-opens it until
// the first dataset is served, then serves the query mix to a closed
// loop of one client per worker: wsquery callers wait for each reply,
// and no more clients run than the host has cores.
func (r *run) storeQuery(ctx context.Context) error {
	var setup []float64
	var ds *analysis.Dataset
	var storeDir string
	var ref [32]byte
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		s, err := r.crawlOnce(ctx, true, -1-i)
		if err != nil {
			return fmt.Errorf("set-up crawl: %w", err)
		}
		setup = append(setup, time.Since(t0).Seconds())
		r.check(s.failed == 0, "set-up crawl: %d failed operations in a fault-free world", s.failed)
		if i == 0 {
			ref = s.digest
		}
		r.check(s.digest == ref, "set-up crawl %d: dataset bytes differ from the first", i)
		if storeDir != "" {
			os.RemoveAll(filepath.Dir(storeDir))
		}
		ds, storeDir = s.dataset, s.storeDir
	}
	r.set("setup_s", median(setup))
	if err := resetPeakRSS(); err != nil {
		return err
	}
	_, wantDataset := datasetDigest(ds)
	mix := queryMix(r.seed, ds, storeDir)
	logf("store_query: dataset of %d sites, %d sockets, %d A&A domains, %d HTTP domains", len(ds.Sites), len(ds.Sockets), len(ds.AADomains), len(ds.HTTPByDomain))
	client := &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: r.workers, DisableCompression: true},
	}
	defer client.CloseIdleConnections()

	// Cold opens: a fresh read-only store replays its sealed segments,
	// and the clock stops when the first full dataset has been served.
	var replay []float64
	var qs *queryServer
	for stop := time.Now().Add(replayBudget); len(replay) < replayReps || time.Now().Before(stop); {
		if qs != nil {
			qs.close()
			client.CloseIdleConnections()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		qs, err = serveStore(storeDir)
		if err != nil {
			return fmt.Errorf("open store: %w", err)
		}
		status, body, err := get(client, qs.base+"/dataset")
		replay = append(replay, time.Since(t0).Seconds())
		if err != nil {
			qs.close()
			return fmt.Errorf("first dataset: %w", err)
		}
		r.check(status == http.StatusOK && bytes.Equal(body, wantDataset), "cold open %d: served dataset differs from the crawl's", len(replay))
	}
	defer qs.close()
	r.set("replay_s", median(replay))
	logf("replay_s: median of %d cold read-backs", len(replay))

	if err := r.acceptAnswers(client, qs.base, mix); err != nil {
		return err
	}
	// Untimed load first, answers checked: throughput climbs for
	// several seconds after set-up before it settles.
	for _, res := range r.queryLoad(client, qs.base, mix, time.Now(), queryWarmup) {
		r.check(res.firstErr == nil, "warm-up query: %v", res.firstErr)
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	window := r.seconds / queryWindows
	cpuAt := make([]time.Duration, queryWindows+1)
	rss := make([]float64, queryWindows) // each window's peak resident set
	var rssErr error
	if rssErr = clearPeakRSS(); rssErr != nil {
		return rssErr
	}
	cpuAt[0] = cpuTime()
	t0 := time.Now()
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() { // samples process CPU and peak RSS at each window boundary
		defer sampler.Done()
		for w := 1; w <= queryWindows; w++ {
			time.Sleep(time.Until(t0.Add(time.Duration(w) * window)))
			cpuAt[w] = cpuTime()
			var err error
			if rss[w-1], err = peakRSSMB(); err == nil {
				err = clearPeakRSS()
			}
			if err != nil && rssErr == nil {
				rssErr = err
			}
		}
	}()
	results := r.queryLoad(client, qs.base, mix, t0, r.seconds)
	sampler.Wait()
	if rssErr != nil {
		return rssErr
	}
	runtime.ReadMemStats(&ms1)

	// Every timing is the median over equal windows of the measured
	// period, so a stall elsewhere on the host moves it little.
	perWindow := make([][]float64, queryWindows)
	var n int64
	for _, res := range results {
		for i, d := range res.done {
			if w := int(d / window.Seconds()); w < queryWindows {
				perWindow[w] = append(perWindow[w], res.lat[i])
			}
		}
		n += res.attempted
		r.failed += res.fails
		r.check(res.firstErr == nil, "query: %v", res.firstErr)
	}
	r.attempted += n
	var rate, cpu, p50, tail []float64
	var ls summary
	for w, lat := range perWindow {
		ls = summarize(lat)
		rate = append(rate, float64(len(lat))/window.Seconds())
		cpu = append(cpu, perPage(us(cpuAt[w+1]-cpuAt[w]), int64(len(lat))))
		p50 = append(p50, ls.p50)
		tail = append(tail, ls.tail)
	}
	logf("store_query windows: queries/s %.0f; cpu us/query %.1f", rate, cpu)
	st, err := colstore.OpenRead(storeDir)
	if err != nil {
		return err
	}
	r.set("ops_per_s", median(rate))
	r.set("cpu_us_per_op", median(cpu))
	r.set("allocs_per_op", perPage(float64(ms1.Mallocs-ms0.Mallocs), n))
	r.set("alloc_bytes_per_op", perPage(float64(ms1.TotalAlloc-ms0.TotalAlloc), n))
	r.set("disk_bytes_per_page", perPage(float64(diskBytes(storeDir)), int64(st.Stats().Pages)))
	r.set("peak_rss_mb", median(rss))
	r.set("latency_p50_us", median(p50))
	r.set("latency_tail_us", median(tail))
	logf("store_query: %d queries by %d closed-loop clients over %d sealed segments; latency tail is p%.1f of the last window's %d",
		n, r.workers, st.Stats().Segments, 100*ls.tailQ, ls.n)
	return nil
}

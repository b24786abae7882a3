package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/browser"
	"repro/internal/colstore"
	"repro/internal/crawler"
	"repro/internal/devtools"
	"repro/internal/dispatch"
	"repro/internal/filterlist"
	"repro/internal/labeler"
	"repro/internal/urlutil"
	"repro/internal/webgen"
	"repro/internal/webserver"
)

// layer names the public entry point a span timed.
type layer uint8

const (
	lWorld    layer = iota // webgen.NewWorld
	lParse                 // filterlist.Parse of both rule lists
	lServer                // webserver.StartWith
	lSite                  // crawler.CrawlSite
	lVisit                 // browser.Visit, inferred between OnPage calls
	lFetch                 // webserver.Server.Fetch
	lOnPage                // the crawl's OnPage callback
	lRecord                // analysis.Recorder.RecordPage
	lAppend                // dispatch.Spooler.Append
	lFold                  // analysis.Folder.Fold
	lIngest                // colstore.Store.Ingest
	lFlush                 // dispatch.Spooler.Flush
	lSeal                  // colstore.Store.Seal
	lFinalize              // colstore.Store.Finalize
	numLayers
)

var layerNames = [numLayers]string{
	"webgen.world", "filterlist.parse", "webserver.start", "crawler.site",
	"browser.visit", "webserver.fetch", "crawler.onpage", "analysis.record",
	"dispatch.append", "analysis.fold", "colstore.ingest", "dispatch.flush",
	"colstore.seal", "colstore.finalize",
}

func (l layer) String() string { return layerNames[l] }

// checkpointEvery mirrors dispatch's default checkpoint cadence: the
// spool flushes and the store seals after every this many sites.
const checkpointEvery = 8

// tracer hands out span IDs and timestamps for one traced pass.
type tracer struct {
	base time.Time
	ids  atomic.Int32
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }
func (t *tracer) id() int32  { return t.ids.Add(1) }

// lane is one worker's span log and counters. Spans are kept in memory
// and written out once, when the run ends.
type lane struct {
	t      *tracer
	server *webserver.Server

	mu    sync.Mutex
	spans []span
	// visit is the open browser.visit span, the parent of fetches.
	visit atomic.Int32

	fetchBodyBytes                      int64 // guarded by mu
	requests, sockets, frames, frameLen int64 // lane goroutine only
	capture                             *capture
}

func (l *lane) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// timed runs fn as a span of the given layer.
func (l *lane) timed(name layer, parent int32, fn func()) {
	id, start := l.t.id(), l.t.now()
	fn()
	l.add(span{id: id, parent: parent, name: name, start: start, end: l.t.now()})
}

// fetch is the browser's Fetch: webserver.Server.Fetch, timed.
func (l *lane) fetch(u *urlutil.URL, post []byte) (int, string, []byte, error) {
	id, start := l.t.id(), l.t.now()
	status, ct, body, err := l.server.Fetch(u, post)
	end := l.t.now()
	l.mu.Lock()
	l.spans = append(l.spans, span{id: id, parent: l.visit.Load(), name: lFetch, start: start, end: end})
	l.fetchBodyBytes += int64(len(body))
	if c := l.capture; c != nil && status == 200 {
		switch {
		case strings.HasPrefix(ct, "text/html"):
			c.docs = append(c.docs, string(body))
		case strings.HasPrefix(ct, "application/javascript"):
			c.scripts = append(c.scripts, string(body))
		}
	}
	l.mu.Unlock()
	return status, ct, body, err
}

// capture holds the inputs the capture pass saw, copied out of the
// crawl's reused buffers, for the decomposition pass.
type capture struct {
	docs, scripts []string
	pages         []capturedPage
}

type capturedPage struct {
	url    string
	trace  *devtools.Trace
	record *analysis.PageRecord
}

// cloneTrace deep-copies a page's trace out of the browser's reused
// per-page storage.
func cloneTrace(t *devtools.Trace) *devtools.Trace {
	out := devtools.NewTrace()
	out.Events = make([]devtools.Event, 0, len(t.Events))
	for _, ev := range t.Events {
		switch e := ev.(type) {
		case devtools.RequestWillBeSent:
			e.Header, e.Body = maps.Clone(e.Header), bytes.Clone(e.Body)
			ev = e
		case devtools.ResponseReceived:
			e.Body = bytes.Clone(e.Body)
			ev = e
		case devtools.WebSocketWillSendHandshakeRequest:
			e.Header = maps.Clone(e.Header)
			ev = e
		case devtools.WebSocketFrameSent:
			e.Payload = bytes.Clone(e.Payload)
			ev = e
		case devtools.WebSocketFrameReceived:
			e.Payload = bytes.Clone(e.Payload)
			ev = e
		}
		out.Events = append(out.Events, ev)
	}
	return out
}

// passResult is one traced pass over the pinned world.
type passResult struct {
	spans                     []span
	pages, attempted, failed  int64
	sites                     int64
	requests, sockets, frames int64
	frameLen, fetchBody       int64
	seals, segments           int
	spoolBytes, storeBytes    int64
	laneTime                  time.Duration
	cpu                       time.Duration
	folded, stored            [32]byte
	dataset                   *analysis.Dataset
	storeDir                  string
	capture                   *capture
}

// tracedPass composes the crawl from the layers' public entry points —
// world, rule lists, server, crawler.CrawlSite with per-site seeded
// browsers, then RecordPage, Spooler.Append, Folder.Fold and
// Store.Ingest per page, with Spooler.Flush and Store.Seal every
// checkpointEvery sites — and times every call.
func (r *run) tracedPass(ctx context.Context, n int, capturing bool) (*passResult, error) {
	dir := filepath.Join(r.dir, fmt.Sprintf("traced-%d", n))
	crawlSeed := r.worldSeed + int64(crawlSpec.CrawlIndex)
	t := &tracer{base: time.Now()}
	cpu0 := cpuTime()
	setupLane := &lane{t: t}
	var world *webgen.World
	setupLane.timed(lWorld, -1, func() {
		world = webgen.NewWorld(webgen.Config{Seed: r.worldSeed, NumPublishers: numSites, Era: crawlSpec.Era, CrawlIndex: crawlSpec.CrawlIndex})
	})
	var easylist, easyprivacy *filterlist.List
	setupLane.timed(lParse, -1, func() {
		easylist = filterlist.Parse("easylist", world.EasyListText())
		easyprivacy = filterlist.Parse("easyprivacy", world.EasyPrivacyText())
	})
	var server *webserver.Server
	var err error
	setupLane.timed(lServer, -1, func() { server, err = webserver.StartWith(world, webserver.Options{}) })
	if err != nil {
		return nil, err
	}
	defer server.Close()
	lab := labeler.New(easylist, easyprivacy)
	lab.SetCDNMap(world.CloudfrontMap())
	recorder := &analysis.Recorder{Label: lab, Pooled: true}
	spool, err := dispatch.OpenSpoolBatch(filepath.Join(dir, "spool"), 8, false, dispatch.BatchPolicy{Pages: 64, Bytes: 256 * 1024})
	if err != nil {
		return nil, err
	}
	defer spool.Close()
	storeDir := filepath.Join(dir, "store")
	store, err := colstore.Open(colstore.Config{Dir: storeDir, NumShards: 8, Meta: crawlMeta})
	if err != nil {
		return nil, err
	}
	folder := analysis.NewFolder(crawlMeta)
	setupEnd := t.now()

	res := &passResult{storeDir: storeDir}
	var capt *capture
	if capturing {
		capt = &capture{}
		res.capture = capt
	}
	var (
		next      atomic.Int64
		stats     crawler.Stats
		cpMu      sync.Mutex
		completed int
		firstErr  error
		errMu     sync.Mutex
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	checkpoint := func(l *lane) {
		l.timed(lFlush, -1, func() {
			if err := spool.Flush(); err != nil {
				fail(err)
			}
		})
		l.timed(lSeal, -1, func() {
			if err := store.Seal(); err != nil {
				fail(err)
			}
		})
		res.seals++
	}
	lanes := make([]*lane, r.workers)
	var wg sync.WaitGroup
	crawlStart := t.now()
	for w := range lanes {
		l := &lane{t: t, server: server}
		if w == 0 {
			l.capture = capt
		}
		lanes[w] = l
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(world.Publishers) {
					return
				}
				p := world.Publishers[i]
				site := crawler.Site{Domain: p.Domain, Rank: p.Rank}
				siteID, siteStart := t.id(), t.now()
				visitStart := siteStart
				l.visit.Store(t.id())
				b := browser.New(browser.Config{
					Version:      crawlSpec.BrowserVersion,
					Seed:         crawler.SiteSeed(crawlSeed, site.Domain),
					HTTPClient:   server.Client(),
					ResolveWS:    server.Resolver(),
					ReuseScratch: true,
					Fetch:        l.fetch,
				})
				cfg := crawler.Config{PagesPerSite: pagesPerSite, Seed: crawlSeed}
				cfg.OnPage = func(site crawler.Site, pageURL string, page *browser.PageResult) {
					start := t.now()
					l.add(span{id: l.visit.Load(), parent: siteID, name: lVisit, start: visitStart, end: start})
					id := t.id()
					var rec *analysis.PageRecord
					var rerr error
					l.timed(lRecord, id, func() { rec, rerr = recorder.RecordPage(site, pageURL, page) })
					if rerr != nil {
						fail(rerr)
					} else {
						l.timed(lAppend, id, func() {
							if err := spool.Append(rec); err != nil {
								fail(err)
							}
						})
						l.timed(lFold, id, func() { folder.Fold(rec) })
						l.timed(lIngest, id, func() {
							if _, err := store.Ingest(rec); err != nil {
								fail(err)
							}
						})
					}
					for _, ev := range page.Trace.Events {
						switch e := ev.(type) {
						case devtools.RequestWillBeSent:
							l.requests++
						case devtools.WebSocketCreated:
							l.sockets++
						case devtools.WebSocketFrameSent:
							l.frames++
							l.frameLen += int64(len(e.Payload))
						case devtools.WebSocketFrameReceived:
							l.frames++
							l.frameLen += int64(len(e.Payload))
						}
					}
					if l.capture != nil && rec != nil {
						l.capture.pages = append(l.capture.pages, capturedPage{url: pageURL, trace: cloneTrace(page.Trace), record: rec})
					}
					end := t.now()
					l.add(span{id: id, parent: siteID, name: lOnPage, start: start, end: end})
					visitStart = end
					l.visit.Store(t.id())
				}
				_, serr := crawler.CrawlSite(ctx, b, site, cfg, &stats)
				l.add(span{id: siteID, parent: -1, name: lSite, start: siteStart, end: t.now()})
				if serr != nil {
					fail(serr)
				}
				cpMu.Lock()
				completed++
				if completed%checkpointEvery == 0 {
					checkpoint(l)
				}
				cpMu.Unlock()
			}
		}()
	}
	wg.Wait()
	crawlEnd := t.now()
	checkpoint(setupLane)
	var storeDS *analysis.Dataset
	setupLane.timed(lFinalize, -1, func() { storeDS, _ = store.Finalize() })
	res.cpu = cpuTime() - cpu0
	end := t.now()
	res.laneTime = time.Duration(setupEnd + int64(r.workers)*(crawlEnd-crawlStart) + (end - crawlEnd))
	if firstErr != nil {
		return nil, firstErr
	}
	if err := spool.Close(); err != nil {
		return nil, err
	}

	folded, _ := folder.Finalize()
	res.dataset = folded
	res.folded, _ = datasetDigest(folded)
	res.stored, _ = datasetDigest(storeDS)
	res.segments = store.Stats().Segments
	res.spoolBytes = diskBytes(filepath.Join(dir, "spool"))
	res.storeBytes = diskBytes(storeDir)
	st := stats.Snapshot()
	res.pages, res.attempted = st.Pages, st.Pages+st.PageErrors
	res.failed = st.PageErrors + st.SiteErrors
	res.sites = st.Sites
	res.spans = setupLane.spans
	for _, l := range lanes {
		res.spans = append(res.spans, l.spans...)
		res.requests += l.requests
		res.sockets += l.sockets
		res.frames += l.frames
		res.frameLen += l.frameLen
		l.mu.Lock()
		res.fetchBody += l.fetchBodyBytes
		l.mu.Unlock()
	}
	return res, nil
}

// writeSpans writes every timed pass's spans, once, as tab-separated
// lines: pass, layer, id, parent, start ns, end ns.
func writeSpans(path string, passes []*passResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "pass\tlayer\tid\tparent\tstart_ns\tend_ns")
	for i, p := range passes {
		for _, s := range p.spans {
			fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\n", i, s.name, s.id, s.parent, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

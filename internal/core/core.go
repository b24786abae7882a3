// Package core is the public entry point of the reproduction: it wires
// the synthetic web, the instrumented browser, the crawler, the labeler,
// and the analysis into the paper's four-crawl study, and renders every
// table and figure of the evaluation.
//
// Typical use:
//
//	study, err := core.RunStudy(ctx, core.DefaultOptions())
//	fmt.Println(study.Report())
//
// Individual crawls, custom worlds, and blocker-equipped browsers are
// available through RunCrawl and the underlying packages.
package core

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/browser"
	"repro/internal/colstore"
	"repro/internal/crawler"
	"repro/internal/dispatch"
	"repro/internal/faultnet"
	"repro/internal/filterlist"
	"repro/internal/labeler"
	"repro/internal/webgen"
	"repro/internal/webserver"
)

// CrawlSpec identifies one crawl of the study.
type CrawlSpec struct {
	// Name labels the crawl in tables ("Apr 02-05, 2017").
	Name string
	// Era selects company behaviour relative to the Chrome 58 patch.
	Era webgen.Era
	// CrawlIndex perturbs session-level randomness between crawls.
	CrawlIndex int
	// BrowserVersion is the Chrome version current at crawl time.
	BrowserVersion int
}

// DefaultCrawls returns the paper's four crawls (Table 1).
func DefaultCrawls() []CrawlSpec {
	return []CrawlSpec{
		{Name: "Apr 02-05, 2017", Era: webgen.EraPrePatch, CrawlIndex: 0, BrowserVersion: 57},
		{Name: "Apr 11-16, 2017", Era: webgen.EraPrePatch, CrawlIndex: 1, BrowserVersion: 57},
		{Name: "May 07-12, 2017", Era: webgen.EraPostPatch, CrawlIndex: 2, BrowserVersion: 58},
		{Name: "Oct 12-16, 2017", Era: webgen.EraPostPatch, CrawlIndex: 3, BrowserVersion: 61},
	}
}

// Options parameterizes a study run.
type Options struct {
	// Seed drives the whole study deterministically.
	Seed int64
	// NumPublishers scales the synthetic web (the paper crawled 100K
	// sites; the default reproduction is laptop-scale).
	NumPublishers int
	// Workers is the crawl parallelism.
	Workers int
	// PagesPerSite is the per-site page budget (paper: 15).
	PagesPerSite int
	// WaitBetweenPages throttles the crawl (paper: ~60s; default 0).
	WaitBetweenPages time.Duration
	// Extensions, if non-nil, builds blocking extensions for each
	// site's browser; the paper crawled with stock Chrome (nil).
	Extensions func(spec CrawlSpec) []browser.Extension
	// Dispatch, if non-nil, routes crawls through the durable
	// orchestrator (internal/dispatch): lease-backed queue, retries,
	// checkpoint/resume, and sharded spooling.
	Dispatch *DispatchOptions
	// ReferencePipeline routes the crawl through the retained seed-path
	// pipeline: wire HTTP fetches through the full TCP + net/http
	// stack, per-page allocation of traces/trees/scratch, and a spool
	// flush per record. The default (false) is the optimized pipeline —
	// in-process fetches, pooled per-page storage, batched spool group
	// commit — which produces a byte-identical dataset; the reference
	// path is retained as the differential oracle proving that
	// (TestPipelineDifferential), the same pattern filterlist uses for
	// its reference matcher.
	ReferencePipeline bool
	// Store routes dispatch-path crawls through the embedded columnar
	// store (internal/colstore): every page record is ingested as it
	// arrives, segments seal atomically at each checkpoint boundary, and
	// the crawl's dataset is served from the store's incremental
	// aggregate instead of the in-memory fold. The spool stays behind
	// as the differential oracle — store-derived tables are
	// byte-identical to fold-derived ones (TestStoreDifferential).
	// Requires Dispatch; the sealed store is queryable with cmd/wsquery.
	Store bool
	// FaultProfile, when non-empty, names a faultnet profile (see
	// faultnet.Names) injected on both sides of the wire: uniformly on
	// the web server's listener and per-socket on every browser's
	// WebSocket dials. FaultSeed keys the schedules; the same
	// (Seed, FaultSeed, FaultProfile) triple reproduces the same
	// degraded dataset byte for byte.
	FaultProfile string
	FaultSeed    int64
}

// DispatchOptions configures the durable orchestrator path.
type DispatchOptions struct {
	// StateDir is the root for per-crawl checkpoints and spool shards
	// (crawlN.checkpoint.json, spool-crawlN/). Required unless both
	// CheckpointPath and SpoolDir are set for a single-crawl run.
	StateDir string
	// CheckpointPath / SpoolDir / StoreDir override the StateDir-derived
	// layout for single-crawl use (cmd/wscrawl's -checkpoint /
	// -spool-dir / -store-dir).
	CheckpointPath string
	SpoolDir       string
	StoreDir       string
	// Resume continues an interrupted crawl from its checkpoint.
	Resume bool
	// NumShards is the spool shard count (default 8).
	NumShards int
	// MaxAttempts is the per-site attempt budget (default 3).
	MaxAttempts int
	// LeaseTTL bounds unheartbeated site leases (default 30s).
	LeaseTTL time.Duration
	// CheckpointEvery sets the checkpoint cadence in completed sites
	// (default 8).
	CheckpointEvery int
}

// checkpointPath resolves the checkpoint file for one crawl.
func (d *DispatchOptions) checkpointPath(spec CrawlSpec) string {
	if d.CheckpointPath != "" {
		return d.CheckpointPath
	}
	return filepath.Join(d.StateDir, fmt.Sprintf("crawl%d.checkpoint.json", spec.CrawlIndex))
}

// spoolDir resolves the spool directory for one crawl.
func (d *DispatchOptions) spoolDir(spec CrawlSpec) string {
	if d.SpoolDir != "" {
		return d.SpoolDir
	}
	return filepath.Join(d.StateDir, fmt.Sprintf("spool-crawl%d", spec.CrawlIndex))
}

// storeDir resolves the columnar store directory for one crawl.
func (d *DispatchOptions) storeDir(spec CrawlSpec) string {
	if d.StoreDir != "" {
		return d.StoreDir
	}
	return filepath.Join(d.StateDir, fmt.Sprintf("store-crawl%d", spec.CrawlIndex))
}

// DefaultOptions returns the laptop-scale defaults.
func DefaultOptions() Options {
	return Options{
		Seed:          20170419,
		NumPublishers: 600,
		Workers:       8,
		PagesPerSite:  15,
	}
}

// CrawlResult is one completed crawl.
type CrawlResult struct {
	Spec    CrawlSpec
	Dataset *analysis.Dataset
	Stats   crawler.Stats
	// Dispatch carries the orchestrator's extra outcome (retries,
	// resume counters, failed sites) when the dispatch path ran.
	Dispatch *dispatch.Result
}

// RunCrawl generates the world for a crawl spec, serves it, crawls it,
// and returns the measurement dataset. With opts.Dispatch set the crawl
// runs through the durable orchestrator (checkpointed, retried,
// resumable); otherwise it is a one-shot in-memory pass. Both paths
// build one browser per site seeded with crawler.SiteSeed and fold
// Recorder records into an analysis.Folder, so for a given config they
// produce the same dataset bytes at any worker count.
func RunCrawl(ctx context.Context, opts Options, spec CrawlSpec) (*CrawlResult, error) {
	opts = withDefaults(opts)
	if opts.Store && opts.Dispatch == nil {
		return nil, fmt.Errorf("core: crawl %q: Options.Store requires the dispatch path (set Options.Dispatch)", spec.Name)
	}
	world := webgen.NewWorld(webgen.Config{
		Seed:          opts.Seed,
		NumPublishers: opts.NumPublishers,
		Era:           spec.Era,
		CrawlIndex:    spec.CrawlIndex,
	})
	var fault faultnet.Profile
	if opts.FaultProfile != "" {
		p, ok := faultnet.ByName(opts.FaultProfile)
		if !ok {
			return nil, fmt.Errorf("core: unknown fault profile %q (have: %s)",
				opts.FaultProfile, strings.Join(faultnet.Names(), ", "))
		}
		fault = p
	}
	faultSeed := opts.FaultSeed + int64(spec.CrawlIndex)
	server, err := webserver.StartWith(world, webserver.Options{
		Fault:     fault,
		FaultSeed: faultSeed,
	})
	if err != nil {
		return nil, fmt.Errorf("core: start server: %w", err)
	}
	defer server.Close()

	// The analysis labels with the same rule lists the blockers use —
	// EasyList + EasyPrivacy — plus the study's manual CDN mapping
	// (the 13 hand-mapped Cloudfront hosts of §3.2).
	easylist := filterlist.Parse("easylist", world.EasyListText())
	easyprivacy := filterlist.Parse("easyprivacy", world.EasyPrivacyText())
	lab := labeler.New(easylist, easyprivacy)
	lab.SetCDNMap(world.CloudfrontMap())

	sites := make([]crawler.Site, 0, len(world.Publishers))
	for _, p := range world.Publishers {
		sites = append(sites, crawler.Site{Domain: p.Domain, Rank: p.Rank})
	}

	crawlSeed := opts.Seed + int64(spec.CrawlIndex)
	meta := analysis.DatasetMeta{
		Name:       spec.Name,
		Era:        spec.Era.String(),
		CrawlIndex: spec.CrawlIndex,
	}
	rec := &analysis.Recorder{Label: lab, Pooled: !opts.ReferencePipeline}
	// Browsers are seeded per site, so a site's records are a pure
	// function of (seed, site) — independent of worker assignment,
	// retries and resume boundaries.
	siteBrowser := func(site crawler.Site) *browser.Browser {
		var exts []browser.Extension
		if opts.Extensions != nil {
			exts = opts.Extensions(spec)
		}
		return browser.New(browserConfig(opts, server,
			spec.BrowserVersion, crawler.SiteSeed(crawlSeed, site.Domain),
			fault, faultSeed), exts...)
	}
	if opts.Dispatch != nil {
		return runCrawlDispatch(ctx, opts, spec, meta, rec, sites, siteBrowser)
	}

	folder := analysis.NewFolder(meta)
	stats, err := crawler.Crawl(ctx, sites, crawler.Config{
		Workers:          opts.Workers,
		PagesPerSite:     opts.PagesPerSite,
		Seed:             crawlSeed,
		WaitBetweenPages: opts.WaitBetweenPages,
		SiteBrowser:      siteBrowser,
		OnPage: func(site crawler.Site, pageURL string, res *browser.PageResult) {
			if r, err := rec.RecordPage(site, pageURL, res); err == nil {
				folder.Fold(r) // an unparseable page is dropped, as on the dispatch path
			}
		},
	})
	if err != nil {
		return nil, fmt.Errorf("core: crawl %q: %w", spec.Name, err)
	}
	ds, _ := folder.Finalize()
	return &CrawlResult{Spec: spec, Dataset: ds, Stats: stats}, nil
}

// runCrawlDispatch routes one crawl through the durable orchestrator,
// with the same recorder and per-site browsers as the one-shot path.
func runCrawlDispatch(ctx context.Context, opts Options, spec CrawlSpec, meta analysis.DatasetMeta, rec *analysis.Recorder, sites []crawler.Site, siteBrowser func(crawler.Site) *browser.Browser) (*CrawlResult, error) {
	d := opts.Dispatch
	var store *colstore.Store
	if opts.Store {
		shards := d.NumShards
		if shards <= 0 {
			shards = 8 // mirror the dispatch spool default
		}
		st, err := colstore.Open(colstore.Config{
			Dir:       d.storeDir(spec),
			NumShards: shards,
			Meta:      meta,
			Resume:    d.Resume,
		})
		if err != nil {
			return nil, fmt.Errorf("core: crawl %q: %w", spec.Name, err)
		}
		store = st
	}
	res, err := dispatch.Run(ctx, dispatch.Config{
		Name:             spec.Name,
		Meta:             meta,
		Sites:            sites,
		Workers:          opts.Workers,
		PagesPerSite:     opts.PagesPerSite,
		Seed:             opts.Seed + int64(spec.CrawlIndex),
		WaitBetweenPages: opts.WaitBetweenPages,
		SiteBrowser:      func(site crawler.Site, _ int) *browser.Browser { return siteBrowser(site) },
		Recorder:         rec,
		Batch:            spoolBatch(opts),
		Store:            store,
		SpoolDir:         d.spoolDir(spec),
		NumShards:        d.NumShards,
		CheckpointPath:   d.checkpointPath(spec),
		Resume:           d.Resume,
		CheckpointEvery:  d.CheckpointEvery,
		Retry:            dispatch.RetryPolicy{MaxAttempts: d.MaxAttempts},
		LeaseTTL:         d.LeaseTTL,
	})
	if store != nil {
		// Seal the tail segments so the on-disk store holds the complete
		// crawl (wsquery over a finished crawl needs no live process).
		if cerr := store.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		return nil, fmt.Errorf("core: crawl %q: %w", spec.Name, err)
	}
	return &CrawlResult{Spec: spec, Dataset: res.Dataset, Stats: res.Stats, Dispatch: res}, nil
}

// spoolBatch picks the spool group-commit policy: 64-page / 256 KiB
// groups on the optimized pipeline, per-record flush (the zero value)
// on the reference pipeline.
func spoolBatch(opts Options) dispatch.BatchPolicy {
	if opts.ReferencePipeline {
		return dispatch.BatchPolicy{}
	}
	return dispatch.BatchPolicy{Pages: 64, Bytes: 256 * 1024}
}

// browserConfig assembles one site's browser config, selecting the
// fetch path: in-process direct fetch (webserver.Fetch) on the
// optimized pipeline, the wire client on the reference pipeline — and
// always the wire under fault injection, since bypassing the wire would
// bypass the injected faults.
func browserConfig(opts Options, server *webserver.Server, version int, seed int64, fault faultnet.Profile, faultSeed int64) browser.Config {
	cfg := browser.Config{
		Version:      version,
		Seed:         seed,
		HTTPClient:   server.Client(),
		ResolveWS:    server.Resolver(),
		ReuseScratch: !opts.ReferencePipeline,
	}
	if !opts.ReferencePipeline && !fault.Enabled() {
		cfg.Fetch = server.Fetch
	}
	return applyFault(cfg, fault, faultSeed)
}

// applyFault arms a browser config for a degraded crawl: client-side
// fault wrapping on its WebSocket dials, plus the dial-retry hardening
// that keeps transient handshake failures from costing a socket. Fault
// schedules key on the browser's Seed, and browsers are seeded per
// site, so socket outcomes stay independent of worker assignment and
// retries, exactly like the rest of the crawl.
func applyFault(cfg browser.Config, fault faultnet.Profile, faultSeed int64) browser.Config {
	if !fault.Enabled() {
		return cfg
	}
	cfg.Fault = fault
	cfg.FaultSeed = faultSeed
	cfg.DialRetries = 2
	cfg.DialRetryBackoff = 5 * time.Millisecond
	return cfg
}

// Study is the completed four-crawl measurement.
type Study struct {
	Options Options
	Results []*CrawlResult
}

// RunStudy executes the paper's full methodology: two crawls before the
// patch, two after.
func RunStudy(ctx context.Context, opts Options) (*Study, error) {
	opts = withDefaults(opts)
	study := &Study{Options: opts}
	for _, spec := range DefaultCrawls() {
		res, err := RunCrawl(ctx, opts, spec)
		if err != nil {
			return nil, err
		}
		study.Results = append(study.Results, res)
	}
	return study, nil
}

func withDefaults(opts Options) Options {
	def := DefaultOptions()
	if opts.Seed == 0 {
		opts.Seed = def.Seed
	}
	if opts.NumPublishers <= 0 {
		opts.NumPublishers = def.NumPublishers
	}
	if opts.Workers <= 0 {
		opts.Workers = def.Workers
	}
	if opts.PagesPerSite <= 0 {
		opts.PagesPerSite = def.PagesPerSite
	}
	return opts
}

// Datasets returns the study's datasets in crawl order.
func (s *Study) Datasets() []*analysis.Dataset {
	out := make([]*analysis.Dataset, len(s.Results))
	for i, r := range s.Results {
		out[i] = r.Dataset
	}
	return out
}

// Report renders every table and figure of the paper's evaluation.
func (s *Study) Report() string {
	ds := s.Datasets()
	var b strings.Builder
	b.WriteString("=== Reproduction: How Tracking Companies Circumvented Ad Blockers Using WebSockets ===\n\n")
	b.WriteString("--- Table 1: High-level crawl statistics ---\n")
	b.WriteString(analysis.RenderTable1(analysis.Table1(ds...)))
	b.WriteString("\n--- Table 2: Top 15 WebSocket initiators ---\n")
	b.WriteString(analysis.RenderTable2(analysis.Table2(15, ds...)))
	b.WriteString("\n--- Table 3: Top 15 A&A WebSocket receivers ---\n")
	b.WriteString(analysis.RenderTable3(analysis.Table3(15, ds...)))
	b.WriteString("\n--- Table 4: Top 15 initiator/receiver pairs ---\n")
	b.WriteString(analysis.RenderTable4(analysis.Table4(15, ds...)))
	b.WriteString("\n--- Table 5: Content sent/received over A&A sockets vs HTTP/S ---\n")
	b.WriteString(analysis.RenderTable5(analysis.Table5(ds...)))
	b.WriteString("\n--- Figure 1 ---\n")
	b.WriteString(analysis.RenderFigure1())
	b.WriteString("\n--- Figure 3 ---\n")
	b.WriteString(analysis.RenderFigure3(analysis.Figure3Binned(analysis.DefaultRankEdges, ds...)))
	b.WriteString("\n--- Figure 4 ---\n")
	b.WriteString(analysis.RenderFigure4(analysis.Figure4(6, ds...)))
	b.WriteString("\n")
	b.WriteString(analysis.RenderOverview(analysis.ComputeOverview(ds...)))
	b.WriteString("\n")
	b.WriteString(analysis.RenderReceiverCategories(analysis.ReceiverCategories(ds...)))
	if len(ds) >= 2 {
		b.WriteString("\n")
		b.WriteString(analysis.RenderChurn(analysis.ComputeChurn(ds[0], ds[len(ds)-1], analysis.UnionAASet(ds...))))
	}
	return b.String()
}

// Package crawler implements the paper's crawl methodology (§3.3): for
// every site, visit the homepage, extract same-site links, and visit up
// to 15 of them at random, topping up from links discovered on visited
// pages when the homepage offers fewer.
//
// The crawler is deterministic per (seed, site) and runs sites across a
// worker pool. Sites come from a pluggable Source: a plain slice for
// one-shot crawls, or a durable lease-backed queue (internal/dispatch)
// for crawls that must survive crashes and retries. Every site gets a
// fresh browser from Config.SiteBrowser, so a site's results do not
// depend on which worker crawled it, in what order, or on which
// attempt.
package crawler

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/browser"
	"repro/internal/lazyrand"
	"repro/internal/obs"
)

// Site is one crawl target.
type Site struct {
	// Domain is the site's registrable domain.
	Domain string
	// Rank is its Alexa-style rank (carried through to records).
	Rank int
}

// Config parameterizes a crawl.
type Config struct {
	// Workers is the number of parallel site crawlers (default 8).
	Workers int
	// PagesPerSite caps pages visited per site including the homepage
	// (default 15, the paper's budget).
	PagesPerSite int
	// Seed drives per-site link sampling.
	Seed int64
	// WaitBetweenPages throttles page visits (the paper waited ~60s;
	// the simulator defaults to 0).
	WaitBetweenPages time.Duration
	// SiteBrowser builds a fresh browser for each site. Seed it with
	// SiteSeed so a site's results are independent of worker
	// assignment and visit order, which byte-identical datasets and
	// deterministic retries and resume rely on. Required.
	SiteBrowser func(site Site) *browser.Browser
	// OnPage receives every successfully loaded page. It may be called
	// concurrently from workers.
	OnPage func(site Site, pageURL string, res *browser.PageResult)
}

// Stats summarizes a crawl. Counters are attempt-level: a site that is
// retried by an external scheduler counts once per attempt.
//
// Concurrency: workers increment the shared *Stats with atomic adds
// while the crawl runs. Reading the fields directly is safe only after
// Crawl/CrawlSource has returned; a concurrent observer (a progress
// reporter, a test asserting mid-crawl invariants) must go through
// Snapshot, which loads every counter atomically. The same counters
// are mirrored to the obs registry (crawl.pages, crawl.page_errors,
// crawl.sites, crawl.site_errors, crawl.site_panics) for live
// monitoring without touching Stats at all.
type Stats struct {
	// Sites counts site crawl attempts that actually reached the
	// network (the homepage visit returned). Sites skipped because the
	// context was already cancelled are not counted.
	Sites int64
	// Pages counts successfully loaded pages.
	Pages int64
	// PageErrors counts failed page loads (cancellation excluded).
	PageErrors int64
	// SiteErrors counts site attempts that produced no pages: the
	// homepage failed or the site crawl panicked.
	SiteErrors int64
	// SitePanics counts panics recovered inside per-site crawls.
	SitePanics int64
}

// Snapshot returns an atomically loaded copy of the counters, safe to
// call while workers are still incrementing them.
func (s *Stats) Snapshot() Stats {
	return Stats{
		Sites:      atomic.LoadInt64(&s.Sites),
		Pages:      atomic.LoadInt64(&s.Pages),
		PageErrors: atomic.LoadInt64(&s.PageErrors),
		SiteErrors: atomic.LoadInt64(&s.SiteErrors),
		SitePanics: atomic.LoadInt64(&s.SitePanics),
	}
}

// SiteError reports a site whose crawl failed outright (its homepage
// could not be loaded, so no pages were observed).
type SiteError struct {
	Site string
	Err  error
}

func (e *SiteError) Error() string { return fmt.Sprintf("crawler: site %s: %v", e.Site, e.Err) }
func (e *SiteError) Unwrap() error { return e.Err }

// PanicError reports a panic recovered during a per-site crawl.
type PanicError struct {
	Site  string
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("crawler: panic crawling %s: %v", e.Site, e.Value)
}

// Source yields sites to a crawl's worker pool. Implementations must be
// safe for concurrent use.
type Source interface {
	// Next returns the next site to crawl, blocking until one is
	// available. ok=false means the source is drained (or ctx is done)
	// and the worker should exit.
	Next(ctx context.Context) (site Site, ok bool)
	// Done reports the outcome of a site crawl: the number of pages
	// loaded and the error (nil for a completed site, ctx.Err() for a
	// cancelled one, *SiteError / *PanicError for failures).
	Done(site Site, pages int, err error)
}

// sliceSource feeds a fixed site list in order.
type sliceSource struct {
	mu      sync.Mutex
	sites   []Site
	next    int
	settled int
	failed  int
}

// SliceSource wraps a fixed site list as a Source. The source exports
// queue-depth gauges (queue.total/pending/leased/done/failed) to the
// obs registry so a plain in-memory crawl shows the same progress line
// a dispatched one does.
func SliceSource(sites []Site) Source {
	s := &sliceSource{sites: sites}
	s.gauge(obs.MQueueTotal, func() int64 { return int64(len(s.sites)) })
	s.gauge(obs.MQueuePending, func() int64 { return int64(len(s.sites) - s.next) })
	s.gauge(obs.MQueueLeased, func() int64 { return int64(s.next - s.settled) })
	s.gauge(obs.MQueueDone, func() int64 { return int64(s.settled - s.failed) })
	s.gauge(obs.MQueueFailed, func() int64 { return int64(s.failed) })
	return s
}

// gauge registers fn as a function gauge, taking the source lock.
func (s *sliceSource) gauge(name string, fn func() int64) {
	obs.Default.GaugeFunc(name, func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return fn()
	})
}

func (s *sliceSource) Next(ctx context.Context) (Site, bool) {
	if ctx.Err() != nil {
		return Site{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.next >= len(s.sites) {
		return Site{}, false
	}
	site := s.sites[s.next]
	s.next++
	return site, true
}

func (s *sliceSource) Done(_ Site, _ int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.settled++
	if err != nil && !released(err) {
		s.failed++
	}
}

// released reports whether a site outcome is a cancellation rather
// than a failure.
func released(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Crawl visits every site and reports aggregate stats. It stops early
// when ctx is cancelled, returning the stats so far plus ctx.Err().
func Crawl(ctx context.Context, sites []Site, cfg Config) (Stats, error) {
	return CrawlSource(ctx, SliceSource(sites), cfg)
}

// CrawlSource runs the worker pool against an arbitrary site source.
// Workers pull sites with src.Next, crawl them with per-site panic
// recovery, and report each outcome with src.Done.
func CrawlSource(ctx context.Context, src Source, cfg Config) (Stats, error) {
	if cfg.SiteBrowser == nil {
		return Stats{}, fmt.Errorf("crawler: Config.SiteBrowser is required")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 8
	}

	var stats Stats
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				site, ok := src.Next(ctx)
				if !ok {
					return
				}
				pages, err := CrawlSite(ctx, cfg.SiteBrowser(site), site, cfg, &stats)
				src.Done(site, pages, err)
			}
		}()
	}
	wg.Wait()
	return stats, ctx.Err()
}

// CrawlSite crawls one site with the given browser: the homepage plus
// up to cfg.PagesPerSite-1 sampled same-site links. Panics anywhere in
// the browser/page pipeline are recovered and counted in stats, so a
// single broken site cannot kill the whole crawl. The returned error is
// nil for a completed site, ctx.Err() when cancelled (possibly after
// some pages loaded), a *SiteError when the homepage failed, or a
// *PanicError after a recovered panic.
func CrawlSite(ctx context.Context, b *browser.Browser, site Site, cfg Config, stats *Stats) (pages int, err error) {
	defer func() {
		if r := recover(); r != nil {
			atomic.AddInt64(&stats.SitePanics, 1)
			atomic.AddInt64(&stats.SiteErrors, 1)
			obs.CrawlSitePanics.Inc()
			obs.CrawlSiteErrors.Inc()
			err = &PanicError{Site: site.Domain, Value: r, Stack: debug.Stack()}
		}
	}()
	if ctx.Err() != nil {
		return 0, ctx.Err()
	}
	pagesPer := cfg.PagesPerSite
	if pagesPer <= 0 {
		pagesPer = 15
	}
	rng := siteRand(cfg.Seed, site.Domain)

	home := "http://" + site.Domain + "/"
	pageSpan := obs.StartSpan(obs.CrawlPage)
	visitSpan := obs.StartSpan(obs.CrawlVisit)
	res, verr := b.Visit(ctx, home)
	if ctx.Err() != nil {
		// A visit that overlapped cancellation may have fetched only
		// part of the page; discard it rather than record a torn page.
		return 0, ctx.Err()
	}
	if verr != nil {
		atomic.AddInt64(&stats.Sites, 1)
		atomic.AddInt64(&stats.PageErrors, 1)
		atomic.AddInt64(&stats.SiteErrors, 1)
		obs.CrawlSites.Inc()
		obs.CrawlPageErrors.Inc()
		obs.CrawlSiteErrors.Inc()
		return 0, &SiteError{Site: site.Domain, Err: verr}
	}
	visitSpan.End()
	atomic.AddInt64(&stats.Sites, 1)
	atomic.AddInt64(&stats.Pages, 1)
	obs.CrawlSites.Inc()
	obs.CrawlPages.Inc()
	if cfg.OnPage != nil {
		cfg.OnPage(site, home, res)
	}
	pageSpan.End()
	pages = 1
	visited := map[string]bool{home: true}

	// The frontier starts with the homepage's links, shuffled; links
	// found on visited pages top it up when the homepage has fewer
	// than the budget.
	frontier := shuffled(rng, res.Links)
	for len(frontier) > 0 && len(visited) < pagesPer {
		if ctx.Err() != nil {
			return pages, ctx.Err()
		}
		next := frontier[0]
		frontier = frontier[1:]
		if visited[next] {
			continue
		}
		if cfg.WaitBetweenPages > 0 {
			select {
			case <-time.After(cfg.WaitBetweenPages):
			case <-ctx.Done():
				return pages, ctx.Err()
			}
		}
		res := visit(ctx, b, site, next, cfg, stats)
		visited[next] = true
		if res == nil {
			continue
		}
		pages++
		// Top up the frontier from newly discovered links.
		if len(visited)+len(frontier) < pagesPer {
			for _, l := range shuffled(rng, res.Links) {
				if !visited[l] {
					frontier = append(frontier, l)
				}
			}
		}
	}
	if ctx.Err() != nil {
		return pages, ctx.Err()
	}
	return pages, nil
}

func visit(ctx context.Context, b *browser.Browser, site Site, url string, cfg Config, stats *Stats) *browser.PageResult {
	pageSpan := obs.StartSpan(obs.CrawlPage)
	visitSpan := obs.StartSpan(obs.CrawlVisit)
	res, err := b.Visit(ctx, url)
	if ctx.Err() != nil {
		// Discard pages whose visit overlapped cancellation: they may be
		// torn (partially fetched), and the site will be re-crawled.
		return nil
	}
	if err != nil {
		atomic.AddInt64(&stats.PageErrors, 1)
		obs.CrawlPageErrors.Inc()
		return nil
	}
	visitSpan.End()
	atomic.AddInt64(&stats.Pages, 1)
	obs.CrawlPages.Inc()
	if cfg.OnPage != nil {
		cfg.OnPage(site, url, res)
	}
	pageSpan.End()
	return res
}

// siteRand derives the per-site link-sampling RNG.
func siteRand(seed int64, domain string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s", seed, domain)
	return lazyrand.New(int64(h.Sum64()))
}

// shuffled returns a shuffled copy.
func shuffled(rng *rand.Rand, in []string) []string {
	out := append([]string(nil), in...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// SiteSeed derives a per-site browser seed: results for a site become a
// pure function of (seed, site), independent of worker assignment.
// That makes every crawl's dataset byte-identical across worker
// counts, and lets retried and resumed sites reproduce their original
// records exactly.
func SiteSeed(seed int64, domain string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "site|%d|%s", seed, domain)
	return int64(h.Sum64())
}

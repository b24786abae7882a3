package core

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/webgen"
)

// smallOpts keeps integration tests fast.
func smallOpts() Options {
	return Options{Seed: 77, NumPublishers: 60, Workers: 8, PagesPerSite: 4}
}

func TestRunCrawlEndToEnd(t *testing.T) {
	res, err := RunCrawl(context.Background(), smallOpts(), CrawlSpec{
		Name: "test-crawl", Era: webgen.EraPrePatch, CrawlIndex: 0, BrowserVersion: 57,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := res.Dataset
	if len(d.Sites) == 0 {
		t.Fatal("no sites crawled")
	}
	if res.Stats.Pages == 0 {
		t.Fatal("no pages crawled")
	}
	if len(d.AADomains) == 0 {
		t.Fatal("labeler derived no A&A domains")
	}
	// Named A&A domains must be derivable from the crawl itself.
	aa := d.AASet()
	for _, dom := range []string{"doubleclick.net", "google-analytics.com"} {
		if !aa[dom] {
			t.Errorf("%s missing from derived D'", dom)
		}
	}
	// Benign CDNs stay out.
	for _, dom := range []string{"jqcdn-static.com", "mostlyclean-cdn.net"} {
		if aa[dom] {
			t.Errorf("%s wrongly in D'", dom)
		}
	}
	if len(d.HTTPByDomain) == 0 {
		t.Error("no HTTP aggregates")
	}
}

// TestRunCrawlDeterministic: the one-shot path's dataset bytes depend
// on the config alone — identical across two runs and across worker
// counts.
func TestRunCrawlDeterministic(t *testing.T) {
	spec := CrawlSpec{Name: "det", Era: webgen.EraPrePatch, CrawlIndex: 1, BrowserVersion: 57}
	crawl := func(workers int) []byte {
		opts := smallOpts()
		opts.Workers = workers
		res, err := RunCrawl(context.Background(), opts, spec)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.Dataset.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a := crawl(4)
	if b := crawl(4); !bytes.Equal(a, b) {
		t.Errorf("two runs with the same config differ: %d vs %d bytes", len(a), len(b))
	}
	if c := crawl(1); !bytes.Equal(a, c) {
		t.Errorf("dataset depends on worker count: 4 workers %d bytes, 1 worker %d bytes", len(a), len(c))
	}
}

func TestStudyPrePostShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full study in -short mode")
	}
	opts := Options{Seed: 77, NumPublishers: 150, Workers: 8, PagesPerSite: 8}
	study, err := RunStudy(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	ds := study.Datasets()
	if len(ds) != 4 {
		t.Fatalf("datasets = %d", len(ds))
	}
	rows := analysis.Table1(ds...)

	// The paper's headline shape: the number of unique A&A initiators
	// collapses after the Chrome 58 patch while receivers stay stable.
	preInit := rows[0].UniqueAAInitiators
	postInit := rows[3].UniqueAAInitiators
	if preInit <= postInit {
		t.Errorf("unique A&A initiators did not drop: pre=%d post=%d", preInit, postInit)
	}
	if float64(preInit) < 1.5*float64(postInit) {
		t.Errorf("initiator drop too small: pre=%d post=%d", preInit, postInit)
	}
	recvDelta := rows[0].UniqueAAReceivers - rows[3].UniqueAAReceivers
	if recvDelta < -4 || recvDelta > 4 {
		t.Errorf("receiver count unstable: pre=%d post=%d", rows[0].UniqueAAReceivers, rows[3].UniqueAAReceivers)
	}

	// WebSocket usage is rare but majority-A&A.
	for _, r := range rows {
		if r.PctSitesWithSockets > 15 {
			t.Errorf("%s: %f%% sites with sockets (too many)", r.Crawl, r.PctSitesWithSockets)
		}
		if r.Sockets > 0 && r.PctAAReceived < 30 {
			t.Errorf("%s: only %f%% A&A receivers", r.Crawl, r.PctAAReceived)
		}
	}

	// DoubleClick must be among the disappeared initiators.
	churn := analysis.ComputeChurn(ds[0], ds[3], analysis.UnionAASet(ds...))
	found := false
	for _, dom := range churn.Disappeared {
		if dom == "doubleclick.net" || dom == "facebook.com" {
			found = true
		}
	}
	if !found {
		t.Errorf("neither doubleclick nor facebook disappeared: %v", churn.Disappeared)
	}

	// The report renders all sections.
	report := study.Report()
	for _, want := range []string{"Table 1", "Table 5", "Figure 3", "Figure 4", "Overview", "churn"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestWithDefaults(t *testing.T) {
	opts := withDefaults(Options{})
	def := DefaultOptions()
	if opts.Seed != def.Seed || opts.NumPublishers != def.NumPublishers || opts.Workers != def.Workers {
		t.Errorf("defaults not applied: %+v", opts)
	}
	custom := withDefaults(Options{Seed: 5, NumPublishers: 10, Workers: 2, PagesPerSite: 3})
	if custom.Seed != 5 || custom.NumPublishers != 10 {
		t.Error("explicit options overridden")
	}
}

func TestDefaultCrawlsMatchPaper(t *testing.T) {
	crawls := DefaultCrawls()
	if len(crawls) != 4 {
		t.Fatalf("crawls = %d", len(crawls))
	}
	if crawls[0].Era != webgen.EraPrePatch || crawls[1].Era != webgen.EraPrePatch {
		t.Error("first two crawls must be pre-patch")
	}
	if crawls[2].Era != webgen.EraPostPatch || crawls[3].Era != webgen.EraPostPatch {
		t.Error("last two crawls must be post-patch")
	}
	if crawls[0].BrowserVersion >= 58 || crawls[2].BrowserVersion < 58 {
		t.Error("browser versions inconsistent with the patch timeline")
	}
}

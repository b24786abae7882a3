package core

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/colstore"
	"repro/internal/webgen"
)

// renderAllTables renders Tables 1-5 — the paper's full tabular
// evaluation — from one dataset.
func renderAllTables(ds *analysis.Dataset) string {
	var b bytes.Buffer
	b.WriteString(analysis.RenderTable1(analysis.Table1(ds)))
	b.WriteString(analysis.RenderTable2(analysis.Table2(10, ds)))
	b.WriteString(analysis.RenderTable3(analysis.Table3(10, ds)))
	b.WriteString(analysis.RenderTable4(analysis.Table4(10, ds)))
	b.WriteString(analysis.RenderTable5(analysis.Table5(ds)))
	return b.String()
}

func storeDatasetBytes(t *testing.T, ds *analysis.Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ds.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStoreDifferential runs the pinned bench-crawl world through both
// dataset paths — in-memory fold vs streaming columnar store —
// and requires byte-identical datasets and byte-identical rendered
// Table 1-5 output, from the live run and from a cold read-only open of
// the sealed segments.
func TestStoreDifferential(t *testing.T) {
	spec := CrawlSpec{Name: "bench", Era: webgen.EraPrePatch, CrawlIndex: 0, BrowserVersion: 57}
	ctx := context.Background()

	mergeOpts := benchCrawlOptions(filepath.Join(t.TempDir(), "state"), false)
	mergeRes, err := RunCrawl(ctx, mergeOpts, spec)
	if err != nil {
		t.Fatal(err)
	}
	oracle := storeDatasetBytes(t, mergeRes.Dataset)
	oracleTables := renderAllTables(mergeRes.Dataset)

	stateDir := filepath.Join(t.TempDir(), "state")
	storeOpts := benchCrawlOptions(stateDir, false)
	storeOpts.Store = true
	storeRes, err := RunCrawl(ctx, storeOpts, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(storeDatasetBytes(t, storeRes.Dataset), oracle) {
		t.Error("store-derived dataset differs from merge-derived dataset")
	}
	if got := renderAllTables(storeRes.Dataset); got != oracleTables {
		t.Errorf("store-derived tables differ:\n--- store ---\n%s\n--- merge ---\n%s", got, oracleTables)
	}

	// RunCrawl closed (sealed) the store; the on-disk segments alone must
	// reproduce the same dataset and tables for cmd/wsquery.
	ro, err := colstore.OpenRead(filepath.Join(stateDir, "store-crawl0"))
	if err != nil {
		t.Fatal(err)
	}
	roDS, _ := ro.Dataset()
	if !bytes.Equal(storeDatasetBytes(t, roDS), oracle) {
		t.Error("sealed on-disk store differs from merge-derived dataset")
	}
	if got := renderAllTables(roDS); got != oracleTables {
		t.Error("sealed on-disk store renders different tables")
	}
}

// TestStoreRequiresDispatch pins the Options contract: the store rides
// the dispatch path's checkpoint/seal boundary, so enabling it without
// Dispatch is a configuration error, not a silent fallback.
func TestStoreRequiresDispatch(t *testing.T) {
	_, err := RunCrawl(context.Background(), Options{
		Seed: 1, NumPublishers: 2, Workers: 1, PagesPerSite: 1, Store: true,
	}, CrawlSpec{Name: "bad", Era: webgen.EraPrePatch, BrowserVersion: 57})
	if err == nil {
		t.Fatal("Store without Dispatch accepted")
	}
}

// TestFabricStoreDifferential streams the pinned bench-crawl world
// through a coordinator with two real-pipeline workers: the store the
// coordinator fed record-by-record must match the coordinator's own
// spool merge byte for byte, live and after a cold read-only open.
func TestFabricStoreDifferential(t *testing.T) {
	opts := Options{
		Seed:          benchCrawlSeed,
		NumPublishers: benchCrawlSites,
		Workers:       benchCrawlWorkers,
		PagesPerSite:  benchCrawlPages,
	}
	spec := CrawlSpec{Name: "bench", Era: webgen.EraPrePatch, CrawlIndex: 0, BrowserVersion: 57}
	dir := t.TempDir()

	st, err := colstore.Open(colstore.Config{
		Dir:       filepath.Join(dir, "store"),
		NumShards: 4,
		Meta:      FabricDatasetMeta(spec),
	})
	if err != nil {
		t.Fatal(err)
	}
	coord, err := StartFabricCoordinator(opts, spec, FabricCoordinatorOptions{
		Addr:           "127.0.0.1:0",
		BatchSize:      4,
		NumShards:      4,
		CheckpointPath: filepath.Join(dir, "checkpoint.json"),
		SpoolDir:       filepath.Join(dir, "spool"),
		Store:          st,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = RunFabricWorker(ctx, FabricWorkerOptions{
				Name:    fmt.Sprintf("w%d", i),
				URL:     coord.URL(),
				Workers: 2,
				Seed:    int64(i + 1),
			})
		}(i)
	}
	if err := coord.Wait(ctx); err != nil {
		t.Fatalf("coordinator never drained: %v", err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}

	// Finalize writes the last checkpoint (sealing the store) and merges
	// the spool — the oracle the streamed store must reproduce.
	mergeDS, mergeStats, err := coord.Finalize(FabricDatasetMeta(spec))
	if err != nil {
		t.Fatal(err)
	}
	oracle := storeDatasetBytes(t, mergeDS)
	storeDS, storeStats := st.Dataset()
	if !bytes.Equal(storeDatasetBytes(t, storeDS), oracle) {
		t.Error("fabric store dataset differs from coordinator merge")
	}
	if storeStats.Pages != mergeStats.Pages {
		t.Errorf("store folded %d pages, merge saw %d", storeStats.Pages, mergeStats.Pages)
	}
	if got, want := renderAllTables(storeDS), renderAllTables(mergeDS); got != want {
		t.Error("fabric store renders different tables than the merge")
	}
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	ro, err := colstore.OpenRead(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	roDS, _ := ro.Dataset()
	if !bytes.Equal(storeDatasetBytes(t, roDS), oracle) {
		t.Error("sealed fabric store differs from coordinator merge")
	}
}

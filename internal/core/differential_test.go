package core

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"

	"repro/internal/webgen"
)

// runPipeline runs one crawl with the given pipeline selection and
// returns the dataset's exact JSON bytes.
func runPipeline(t *testing.T, reference bool) []byte {
	t.Helper()
	res, err := RunCrawl(context.Background(), Options{
		Seed: 4242, NumPublishers: 18, Workers: 4, PagesPerSite: 3,
		ReferencePipeline: reference,
		Dispatch: &DispatchOptions{
			StateDir: filepath.Join(t.TempDir(), "state"),
		},
	}, CrawlSpec{Name: "diff-crawl", Era: webgen.EraPrePatch, CrawlIndex: 0, BrowserVersion: 57})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Dataset.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPipelineDifferential is the PR's non-negotiable invariant: the
// optimized pipeline — in-process fetch plane, per-page scratch reuse,
// pooled recorder, group-committed spool — produces a
// byte-identical dataset to the retained seed/reference path. Every
// pooling or batching optimization must preserve this; a single leaked
// scratch byte or reordered record fails here.
func TestPipelineDifferential(t *testing.T) {
	reference := runPipeline(t, true)
	optimized := runPipeline(t, false)
	if !bytes.Equal(reference, optimized) {
		t.Fatalf("optimized pipeline dataset differs from reference: %d bytes vs %d bytes",
			len(optimized), len(reference))
	}
}

package dispatch

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/crawler"
)

// batched returns cfg flipped onto the optimized dispatch plane: pooled
// recorder scratch and group-committed spool writes.
func batched(cfg Config) Config {
	cfg.Recorder.Pooled = true
	cfg.Batch = BatchPolicy{Pages: 64, Bytes: 256 * 1024}
	return cfg
}

// TestBatchedPipelineMatchesSeedDataset is the dispatch half of the
// differential invariant: pooled recording plus group commit produces
// the same dataset bytes as the seed per-record-flush path, and both
// equal the merge of their own spools.
func TestBatchedPipelineMatchesSeedDataset(t *testing.T) {
	env := newTestEnv(t, 16)

	seedCfg := env.config(t.TempDir(), 2)
	seed, err := Run(context.Background(), seedCfg)
	if err != nil {
		t.Fatal(err)
	}
	optCfg := batched(env.config(t.TempDir(), 2))
	opt, err := Run(context.Background(), optCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(datasetBytes(t, seed.Dataset), datasetBytes(t, opt.Dataset)) {
		t.Error("batched+folded dataset differs from seed pipeline")
	}
	if !bytes.Equal(datasetBytes(t, seed.Dataset), mergedSpool(t, seedCfg)) {
		t.Error("seed pipeline dataset differs from the merge of its own spool")
	}
	if !bytes.Equal(datasetBytes(t, opt.Dataset), mergedSpool(t, optCfg)) {
		t.Error("batched dataset differs from the merge of its own spool")
	}
	// The folded run must still report real merge stats.
	if opt.Merge.Pages != seed.Merge.Pages {
		t.Errorf("merge pages: folded %d, seed %d", opt.Merge.Pages, seed.Merge.Pages)
	}
}

// TestBatchedKillAndResumeConverges kills a group-committed crawl
// mid-run and resumes it — still batched — checking the result against
// an uninterrupted seed-path run. This is the durability edge the group
// commit moved: a kill can land while records sit in a shard's write
// buffer, and the checkpoint contract (no site marked done before its
// pages are flushed) has to make the resume converge anyway.
func TestBatchedKillAndResumeConverges(t *testing.T) {
	env := newTestEnv(t, 16)

	full, err := Run(context.Background(), env.config(t.TempDir(), 2))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var pages atomic.Int64
	cfg := batched(env.config(dir, 2))
	cfg.CheckpointEvery = 1
	cfg.OnPage = func(crawler.Site, string) {
		if pages.Add(1) == 9 {
			cancel()
		}
	}
	if _, err := Run(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}

	cfg2 := batched(env.config(dir, 2))
	cfg2.CheckpointEvery = 1
	cfg2.Resume = true
	res, err := Run(context.Background(), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResumedDone == 0 {
		t.Error("resume found no completed sites in the checkpoint")
	}
	if !bytes.Equal(datasetBytes(t, full.Dataset), datasetBytes(t, res.Dataset)) {
		t.Error("killed+resumed batched run differs from uninterrupted seed run")
	}
	if !bytes.Equal(datasetBytes(t, res.Dataset), mergedSpool(t, cfg2)) {
		t.Error("killed+resumed batched run differs from the merge of its own spool")
	}
}

// TestBatchedSpoolAppendAllocs pins the group-committed append path's
// allocation profile: with a write buffer sized for the batch, appends
// between commit boundaries are one JSON encode plus buffered copies —
// no per-record file writes, no buffer regrowth. The seed per-record
// path is measured alongside as the ceiling.
func TestBatchedSpoolAppendAllocs(t *testing.T) {
	appendAllocs := func(batch BatchPolicy) float64 {
		dir := t.TempDir()
		sp, err := OpenSpoolBatch(dir, 2, false, batch)
		if err != nil {
			t.Fatal(err)
		}
		defer sp.Close()
		r := rec("alpha.com", "http://alpha.com/")
		// Warm the encoder and the shard's write buffer.
		for i := 0; i < 128; i++ {
			if err := sp.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(500, func() {
			if err := sp.Append(r); err != nil {
				t.Fatal(err)
			}
		})
	}
	batched := appendAllocs(BatchPolicy{Pages: 64, Bytes: 256 * 1024})
	seeded := appendAllocs(BatchPolicy{})
	if batched > seeded {
		t.Errorf("batched append allocates more than seed path: %.1f vs %.1f", batched, seeded)
	}
	// The encode itself dominates; a small fixed bound catches any
	// return to per-append buffer churn.
	if batched > 12 {
		t.Errorf("batched append: %.1f allocs, want <= 12", batched)
	}
}

package dispatch

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/crawler"
	"repro/internal/obs"
)

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cp.json")
	cp := &Checkpoint{
		Version:      CheckpointVersion,
		Name:         "crawl-1",
		Seed:         42,
		NumShards:    4,
		PagesPerSite: 15,
		TotalSites:   100,
		Done:         []string{"a.com", "b.com"},
		Failed:       map[string]string{"c.com": "boom"},
		Attempts:     map[string]int{"c.com": 3, "d.com": 1},
	}
	if err := cp.WriteAtomic(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != cp.Name || got.Seed != cp.Seed || len(got.Done) != 2 || got.Failed["c.com"] != "boom" || got.Attempts["d.com"] != 1 {
		t.Errorf("roundtrip mismatch: %+v", got)
	}
	// No temp droppings.
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Errorf("leftover files: %v", entries)
	}
}

func TestCheckpointCompatible(t *testing.T) {
	cp := &Checkpoint{Name: "x", Seed: 1, NumShards: 8, PagesPerSite: 15, TotalSites: 10}
	if err := cp.Compatible("cp.json", "x", 1, 8, 15, 10); err != nil {
		t.Errorf("compatible rejected: %v", err)
	}
	for _, tc := range []struct {
		name                 string
		seed                 int64
		shards, pages, total int
	}{
		{"y", 1, 8, 15, 10},
		{"x", 2, 8, 15, 10},
		{"x", 1, 4, 15, 10},
		{"x", 1, 8, 5, 10},
		{"x", 1, 8, 15, 99},
	} {
		if err := cp.Compatible("cp.json", tc.name, tc.seed, tc.shards, tc.pages, tc.total); err == nil {
			t.Errorf("mismatch %+v accepted", tc)
		}
	}
}

func TestLoadCheckpointRejectsBadVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp.json")
	if err := os.WriteFile(path, []byte(`{"version": 99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); err == nil {
		t.Error("future version accepted")
	}
}

// TestWriteAtomicSyncsParentDir: rename-based atomic writes are only
// crash-durable once the parent directory's entry is synced — without
// it, power loss after the rename can leave the directory pointing at
// the old file or at nothing. The dir-sync helper counts each
// successful directory sync in store.dir_syncs; every WriteAtomic must
// perform one.
func TestWriteAtomicSyncsParentDir(t *testing.T) {
	before := obs.Default.Snapshot().Counters["store.dir_syncs"]
	path := filepath.Join(t.TempDir(), "data.json")
	if err := WriteAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "x")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	after := obs.Default.Snapshot().Counters["store.dir_syncs"]
	if after <= before {
		t.Errorf("WriteAtomic did not sync the parent directory (store.dir_syncs %d -> %d)", before, after)
	}
}

// TestCheckpointExtentsCoverBufferedGroups pins the writeCheckpoint
// group-commit audit: a checkpoint must never record spool extents that
// precede a buffered-but-unflushed group, nor vouch for sites whose
// pages are still in a write buffer. writeCheckpoint's safe ordering is
// jobs-snapshot → Flush → ShardSizes: any site done at snapshot time
// appended its pages before the snapshot, so the flush that follows
// covers them, and the recorded extents equal the durable on-disk
// sizes. This test holds appends in a group-commit buffer (batch
// thresholds too high to trip), checkpoints, and requires the recorded
// extents to match disk and cover every appended byte.
func TestCheckpointExtentsCoverBufferedGroups(t *testing.T) {
	dir := t.TempDir()
	spool, err := OpenSpoolBatch(dir, 2, false, BatchPolicy{Pages: 1 << 20, Bytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer spool.Close()
	for i := 0; i < 5; i++ {
		rec := &analysis.PageRecord{Site: "pub.com", Rank: 1, PageURL: fmt.Sprintf("http://pub.com/p%d", i)}
		if err := spool.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	// Precondition: the appends really are sitting in the group buffer.
	pre, err := spool.ShardSizes()
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range pre {
		if b != 0 {
			t.Fatalf("shard %d has %d bytes on disk before any flush; batch policy did not buffer", i, b)
		}
	}

	sites := []crawler.Site{{Domain: "pub.com", Rank: 1}}
	cpPath := filepath.Join(dir, "cp.json")
	o := &orchestrator{
		cfg: Config{
			Name: "t", Seed: 1, NumShards: 2, PagesPerSite: 5,
			Sites: sites, CheckpointPath: cpPath,
		},
		queue: NewQueue(sites, QueueConfig{Seed: 1}),
		spool: spool,
	}
	if err := o.writeCheckpoint(); err != nil {
		t.Fatal(err)
	}
	cp, err := LoadCheckpoint(cpPath)
	if err != nil {
		t.Fatal(err)
	}
	disk, err := spool.ShardSizes()
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.ShardBytes) != len(disk) {
		t.Fatalf("checkpoint recorded %d shard extents, spool has %d shards", len(cp.ShardBytes), len(disk))
	}
	var total int64
	for i, b := range cp.ShardBytes {
		if b != disk[i] {
			t.Errorf("shard %d: checkpoint extent %d != on-disk size %d", i, b, disk[i])
		}
		total += b
	}
	if total == 0 {
		t.Error("checkpoint recorded empty extents while appends sat in the group buffer — the buffered group was never flushed before the extents were read")
	}
}

func TestWriteAtomicPreservesOldFileOnFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.json")
	if err := WriteAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "original")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// A failing writer must leave the original intact and clean up its
	// temp file.
	err := WriteAtomic(path, func(w io.Writer) error {
		io.WriteString(w, "partial garbage")
		return errors.New("write failed")
	})
	if err == nil || !strings.Contains(err.Error(), "write failed") {
		t.Fatalf("err = %v", err)
	}
	data, _ := os.ReadFile(path)
	if string(data) != "original" {
		t.Errorf("original clobbered: %q", data)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Errorf("temp file left behind: %v", entries)
	}
}

// TestCheckpointWriteFailsWhenShardIsGone: a checkpoint published
// without ShardBytes reads as v1 ("no guard"), so resume would check
// nothing. When a shard cannot be stat'ed — here it was unlinked while
// its spool is open — the write must fail and leave the previous
// checkpoint file exactly as it was.
func TestCheckpointWriteFailsWhenShardIsGone(t *testing.T) {
	dir := t.TempDir()
	sites := []crawler.Site{{Domain: "alpha.com", Rank: 1}, {Domain: "beta.com", Rank: 2}}
	sp, err := OpenSpool(filepath.Join(dir, "spool"), 2, false)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	o := &orchestrator{
		cfg: Config{
			Name: "cp-test", Seed: 1, NumShards: 2, PagesPerSite: 3, Sites: sites,
			CheckpointPath: filepath.Join(dir, "checkpoint.json"),
		},
		queue: NewQueue(sites, QueueConfig{}),
		spool: sp,
	}
	if err := sp.Append(rec("alpha.com", "http://alpha.com/")); err != nil {
		t.Fatal(err)
	}
	if err := o.writeCheckpoint(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(o.cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	if cp, err := LoadCheckpoint(o.cfg.CheckpointPath); err != nil || len(cp.ShardBytes) != 2 {
		t.Fatalf("first checkpoint: %+v, %v; want 2 shard extents", cp, err)
	}

	if err := os.Remove(sp.Paths()[sp.ShardFor("alpha.com")]); err != nil {
		t.Fatal(err)
	}
	if err := o.writeCheckpoint(); err == nil {
		t.Fatal("checkpoint written although a spool shard could not be stat'ed")
	}
	after, err := os.ReadFile(o.cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(before) {
		t.Errorf("failed write changed the checkpoint:\nbefore: %s\nafter:  %s", before, after)
	}
}

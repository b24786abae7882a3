package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/webgen"
)

// goldenDatasets pins the exact bytes of Dataset.WriteJSON for
// dispatch-path crawls of a small world. The digests were computed
// once and committed; any change to generated pages, crawl order,
// labeling or the fold that moves a single dataset byte fails here.
// A change that is meant to move the bytes must update these digests
// (and re-baseline EXPERIMENTS.md) in the same commit.
var goldenDatasets = []struct {
	spec   CrawlSpec
	digest string
}{
	{
		spec:   CrawlSpec{Name: "golden-pre", Era: webgen.EraPrePatch, CrawlIndex: 0, BrowserVersion: 57},
		digest: "d4850f6bb784b522f562c0c18c2689893ee1c7a16cf973ce854c44c965052ee4",
	},
	{
		spec:   CrawlSpec{Name: "golden-post", Era: webgen.EraPostPatch, CrawlIndex: 2, BrowserVersion: 58},
		digest: "90f4636f34ea08f248166a4034c406e6d63a75ad3de8600d0f7e4220a1ad6b0f",
	},
}

// goldenDigest runs one dispatch-path crawl of the pinned small world
// and returns the SHA-256 of its dataset JSON.
func goldenDigest(t *testing.T, spec CrawlSpec, workers int) string {
	t.Helper()
	res, err := RunCrawl(context.Background(), Options{
		Seed: 20180411, NumPublishers: 60, Workers: workers, PagesPerSite: 5,
		Dispatch: &DispatchOptions{StateDir: filepath.Join(t.TempDir(), "state")},
	}, spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Dataset.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestGoldenDatasetDigests checks every pinned crawl against its
// committed digest at one and two workers: the dispatch path's bytes
// depend on the config alone, never on the worker count.
func TestGoldenDatasetDigests(t *testing.T) {
	for _, g := range goldenDatasets {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", g.spec.Name, workers), func(t *testing.T) {
				if got := goldenDigest(t, g.spec, workers); got != g.digest {
					t.Errorf("dataset digest = %s, want %s", got, g.digest)
				}
			})
		}
	}
}

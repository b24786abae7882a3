package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func TestSelfTimeSubtractsOverlappingChildrenOnce(t *testing.T) {
	spans := []span{
		{id: 1, parent: -1, start: 0, end: 100},
		{id: 2, parent: 1, start: 10, end: 40},
		{id: 3, parent: 1, start: 30, end: 60},  // overlaps span 2
		{id: 4, parent: 1, start: 90, end: 120}, // sticks out of its parent
		{id: 5, parent: 2, start: 15, end: 20},  // grandchild
	}
	self := selfTimes(spans)
	// Children cover [10,60) and [90,100): 60 of the parent's 100.
	want := map[int32]int64{1: 40, 2: 25, 3: 30, 4: 30, 5: 5}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %d, want %d", id, self[id], w)
		}
	}
}

func TestSelfTimeOfChildlessAndNestedChildren(t *testing.T) {
	spans := []span{
		{id: 1, parent: -1, start: 0, end: 50},
		{id: 2, parent: 1, start: 0, end: 50},
		{id: 3, parent: 1, start: 10, end: 20}, // inside span 2's interval
	}
	self := selfTimes(spans)
	if self[1] != 0 || self[2] != 50 || self[3] != 10 {
		t.Errorf("self = %v, want 1:0 2:50 3:10", self)
	}
}

func TestTailIndexKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct{ n, want int }{
		{1, 0},
		{10, 4},    // too few: the median
		{20, 9},    // too few: the median
		{21, 10},   // the median is the first with ten beyond
		{100, 89},  // p90
		{200, 189}, // p95
		{1000, 989},
		{2000, 1979}, // p99 proper, 20 beyond
	}
	for _, c := range cases {
		if got := tailIndex(c.n); got != c.want {
			t.Errorf("tailIndex(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	for n := 21; n <= 5000; n++ {
		i := tailIndex(n)
		if beyond := n - 1 - i; beyond < 10 {
			t.Fatalf("n=%d: index %d leaves %d samples beyond", n, i, beyond)
		}
		if p99 := (99*n+99)/100 - 1; i > p99 {
			t.Fatalf("n=%d: index %d is above p99 (%d)", n, i, p99)
		}
		if i+1 < n-10 && i < (99*n+99)/100-1 {
			t.Fatalf("n=%d: index %d is not the highest qualifying", n, i)
		}
	}
}

func TestSummarizeReportsMedianAndTail(t *testing.T) {
	var s []float64
	for i := 1000; i >= 1; i-- { // unsorted input
		s = append(s, float64(i))
	}
	got := summarize(s)
	if got.n != 1000 || got.p50 != 500 || got.tail != 990 || got.tailQ != 0.99 {
		t.Errorf("summarize = %+v, want n=1000 p50=500 tail=990 tailQ=0.99", got)
	}
	if s[0] != 1000 {
		t.Error("summarize reordered its input")
	}
	if (summarize(nil) != summary{}) {
		t.Error("summarize(nil) is not the zero summary")
	}
}

func TestPerPageNormalization(t *testing.T) {
	if got := perPage(1000, 4); got != 250 {
		t.Errorf("perPage(1000, 4) = %v", got)
	}
	if got := perPage(5, 0); got != 0 {
		t.Errorf("perPage over no pages = %v, want 0", got)
	}
	// Totals pooled over passes normalize by the pooled page count, not
	// by averaging each pass's ratio.
	total, pages := 100.0+300.0, int64(10+30)
	if got := perPage(total, pages); got != 10 {
		t.Errorf("pooled perPage = %v, want 10", got)
	}
}

// benchmarkJSON is the part of BENCHMARK.json the benchmark's output must
// agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	better := func(higher bool) string {
		if higher {
			return "higher"
		}
		return "lower"
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, perfbench %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != better(d.higher) {
			t.Errorf("end_to_end[%d] = %s %s %s, perfbench has %s %s %s", i, m.Name, m.Unit, m.Better, d.name, d.unit, better(d.higher))
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, perfbench %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != better(d.higher) {
			t.Errorf("per_layer[%d] = %s %s %s, perfbench has %s %s %s", i, m.Name, m.Unit, m.Better, d.name, d.unit, better(d.higher))
		}
	}
	for _, w := range b.Workloads {
		if !knownWorkload(w.Name) {
			t.Errorf("BENCHMARK.json workload %s is unknown to perfbench", w.Name)
		}
	}
}

func TestCatalogueCoversEveryMetric(t *testing.T) {
	data, err := os.ReadFile("CATALOGUE.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !strings.Contains(text, "`"+d.name+"`") {
			t.Errorf("CATALOGUE.md does not describe %s", d.name)
		}
	}
}

package main

import (
	"bytes"
	"time"

	"repro/internal/analysis"
	"repro/internal/content"
	"repro/internal/devtools"
	"repro/internal/filterlist"
	"repro/internal/htmlparse"
	"repro/internal/inclusion"
	"repro/internal/labeler"
	"repro/internal/script"
	"repro/internal/urlutil"
	"repro/internal/webgen"
)

// repeatNs calls pass (one sweep over n inputs) at least three times
// and until budget is spent, and returns the median ns per input.
func repeatNs(n int, budget time.Duration, pass func()) float64 {
	if n == 0 {
		return 0
	}
	var per []float64
	stop := time.Now().Add(budget)
	for len(per) < 3 || time.Now().Before(stop) {
		t0 := time.Now()
		pass()
		per = append(per, float64(time.Since(t0))/float64(n))
	}
	return median(per)
}

// decompose times the hot per-page stages one at a time on the inputs
// the capture pass saw. Each figure is a subset of a traced layer —
// htmlparse and script of browser.visit_self; inclusion, labeler,
// filterlist and content of analysis.record; the spool encode of
// dispatch.append — not a row to add to them.
func (r *run) decompose(c *capture) {
	budget := r.seconds * 3 / 10 / 7
	pages := int64(len(c.pages))

	r.set("htmlparse.docs_per_page", perPage(float64(len(c.docs)), pages))
	r.set("htmlparse.us_per_doc", repeatNs(len(c.docs), budget, func() {
		for _, d := range c.docs {
			htmlparse.Parse(d)
		}
	})/1e3)

	r.set("script.scripts_per_page", perPage(float64(len(c.scripts)), pages))
	r.set("script.decode_us_per_script", repeatNs(len(c.scripts), budget, func() {
		for _, s := range c.scripts {
			_, _ = script.Decode(s)
		}
	})/1e3)

	trees := make([]*inclusion.Tree, 0, len(c.pages))
	var nodes int64
	for _, p := range c.pages {
		t, err := inclusion.Build(p.trace)
		r.check(err == nil, "decomposition: inclusion tree of %s: %v", p.url, err)
		if err != nil {
			continue
		}
		t.Root.Walk(func(*inclusion.Node) bool { nodes++; return true })
		trees = append(trees, t)
	}
	r.set("inclusion.nodes_per_page", perPage(float64(nodes), pages))
	r.set("inclusion.build_us_per_page", repeatNs(len(c.pages), budget, func() {
		for _, p := range c.pages {
			_, _ = inclusion.Build(p.trace)
		}
	})/1e3)

	world := webgen.NewWorld(webgen.Config{Seed: r.worldSeed, NumPublishers: numSites, Era: crawlSpec.Era, CrawlIndex: crawlSpec.CrawlIndex})
	easylist := filterlist.Parse("easylist", world.EasyListText())
	easyprivacy := filterlist.Parse("easyprivacy", world.EasyPrivacyText())
	lab := labeler.New(easylist, easyprivacy)
	lab.SetCDNMap(world.CloudfrontMap())
	r.set("labeler.tag_us_per_page", repeatNs(len(trees), budget, func() {
		for _, t := range trees {
			lab.TagTree(t)
		}
	})/1e3)

	var reqs []filterlist.Request
	var sent, recv [][]byte
	for _, p := range c.pages {
		for _, ev := range p.trace.Events {
			switch e := ev.(type) {
			case devtools.RequestWillBeSent:
				u, err := urlutil.Parse(e.URL)
				if err != nil {
					continue
				}
				host := ""
				if fp, err := urlutil.Parse(e.FirstPartyURL); err == nil {
					host = fp.Host
				}
				reqs = append(reqs, filterlist.Request{URL: u, Type: e.Type, PageHost: host})
			case devtools.WebSocketFrameSent:
				sent = append(sent, e.Payload)
			case devtools.WebSocketFrameReceived:
				recv = append(recv, e.Payload)
			}
		}
	}
	r.set("filterlist.matches_per_page", perPage(float64(len(reqs)), pages))
	var cold, warm []float64
	stop := time.Now().Add(budget)
	for len(cold) < 3 || time.Now().Before(stop) {
		g := filterlist.NewGroup(easylist, easyprivacy)
		for pass := 0; pass < 2; pass++ {
			t0 := time.Now()
			for _, q := range reqs {
				g.Match(q)
			}
			ns := float64(time.Since(t0)) / float64(max(len(reqs), 1))
			if pass == 0 {
				cold = append(cold, ns)
			} else {
				warm = append(warm, ns)
			}
		}
	}
	r.set("filterlist.match_ns", median(cold))
	r.set("filterlist.match_ns_warm", median(warm))

	r.set("content.payloads_per_page", perPage(float64(len(sent)+len(recv)), pages))
	var items []string
	r.set("content.classify_us_per_payload", repeatNs(len(sent)+len(recv), budget, func() {
		for _, p := range sent {
			items = content.AppendSent(items[:0], p)
		}
		for _, p := range recv {
			content.ClassifyReceived(p)
		}
	})/1e3)

	var buf bytes.Buffer
	var recBytes int64
	for _, p := range c.pages {
		buf.Reset()
		_ = analysis.EncodeSpoolRecord(&buf, p.record)
		recBytes += int64(buf.Len())
	}
	r.set("analysis.record_bytes", perPage(float64(recBytes), pages))
	r.set("analysis.encode_us_per_record", repeatNs(len(c.pages), budget, func() {
		for _, p := range c.pages {
			buf.Reset()
			_ = analysis.EncodeSpoolRecord(&buf, p.record)
		}
	})/1e3)
}

package main

// metricDef names one reported metric and its unit. The same names,
// units and directions are declared in BENCHMARK.json and explained in
// CATALOGUE.md; TestMetricTablesMatchBenchmarkJSON keeps them in step.
type metricDef struct {
	name, unit string
	higher     bool // higher is better
}

// endToEnd are the metrics every untraced run reports. "op" is a page
// on the crawl workloads and a query on store_query; see CATALOGUE.md.
var endToEnd = []metricDef{
	{"setup_s", "s", false},
	{"ops_per_s", "1/s", true},
	{"cpu_us_per_op", "us", false},
	{"allocs_per_op", "count", false},
	{"alloc_bytes_per_op", "B", false},
	{"disk_bytes_per_page", "B", false},
	{"peak_rss_mb", "MB", false},
	{"replay_s", "s", false},
	{"latency_p50_us", "us", false},
	{"latency_tail_us", "us", false},
}

// perLayer are the metrics every traced run reports.
var perLayer = []metricDef{
	{"webgen.world_build_s", "s", false},
	{"filterlist.parse_ms", "ms", false},
	{"webserver.fetch_us_per_page", "us", false},
	{"webserver.fetches_per_page", "count", false},
	{"webserver.fetch_us_p99", "us", false},
	{"webserver.body_bytes_per_page", "B", false},
	{"browser.visit_self_us_per_page", "us", false},
	{"browser.requests_per_page", "count", false},
	{"browser.sockets_per_page", "count", false},
	{"wsproto.frames_per_page", "count", false},
	{"wsproto.frame_bytes_per_page", "B", false},
	{"crawler.site_ms_p50", "ms", false},
	{"crawler.site_ms_p99", "ms", false},
	{"crawler.pages_per_site", "count", true},
	{"crawler.self_us_per_page", "us", false},
	{"analysis.record_us_per_page", "us", false},
	{"analysis.fold_us_per_page", "us", false},
	{"analysis.encode_us_per_record", "us", false},
	{"analysis.record_bytes", "B", false},
	{"dispatch.append_us_per_page", "us", false},
	{"dispatch.flush_ms_p50", "ms", false},
	{"dispatch.spool_bytes_per_page", "B", false},
	{"colstore.ingest_us_per_page", "us", false},
	{"colstore.seal_ms_p50", "ms", false},
	{"colstore.seals", "count", false},
	{"colstore.segments", "count", false},
	{"colstore.bytes_per_page", "B", false},
	{"colstore.replay_us_per_record", "us", false},
	{"colstore.query_us.tables", "us", false},
	{"colstore.query_us.sites", "us", false},
	{"colstore.query_us.chains", "us", false},
	{"colstore.query_us.labels", "us", false},
	{"colstore.query_us.dataset", "us", false},
	{"colstore.query_us.stats", "us", false},
	{"runtime.gc_cycles_per_kpage", "count", false},
	{"runtime.gc_pause_ms", "ms", false},
	{"htmlparse.us_per_doc", "us", false},
	{"htmlparse.docs_per_page", "count", false},
	{"script.decode_us_per_script", "us", false},
	{"script.scripts_per_page", "count", false},
	{"inclusion.build_us_per_page", "us", false},
	{"inclusion.nodes_per_page", "count", false},
	{"labeler.tag_us_per_page", "us", false},
	{"filterlist.match_ns", "ns", false},
	{"filterlist.match_ns_warm", "ns", false},
	{"filterlist.matches_per_page", "count", false},
	{"content.classify_us_per_payload", "us", false},
	{"content.payloads_per_page", "count", false},
	{"reconcile.self_us_per_page", "us", false},
	{"reconcile.worker_wall_us_per_page", "us", false},
	{"reconcile.self_share", "ratio", true},
	{"reconcile.traced_cpu_us_per_page", "us", false},
	{"reconcile.untraced_cpu_us_per_page", "us", false},
	{"reconcile.cpu_residual_us_per_page", "us", false},
}

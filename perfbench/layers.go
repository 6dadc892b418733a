package main

// layerMetrics lists every per-layer metric with its unit. A traced run of
// any workload reports all of them; a layer the workload does not reach
// reads 0 (README.md says which workload moves which metric).
var layerMetrics = []struct{ name, unit string }{
	{"wire.round_trips_per_read", "count"},
	{"wire.bytes_per_read", "B"},
	{"wire.round_trips_per_commit", "count"},
	{"server.overhead_us", "us"},
	{"stmt.prepare_us", "us"},
	{"parser.parse_us", "us"},
	{"accesspath.lookups_per_read", "count"},
	{"accesspath.scans_per_read", "count"},
	{"eval.rows_in_per_read", "count"},
	{"eval.filter_ns_per_row", "ns"},
	{"eval.join_ns_per_probe", "ns"},
	{"fixpoint.rounds_per_recompute", "count"},
	{"fixpoint.recompute_ms", "ms"},
	{"matview.misses_per_edit", "count"},
	{"matview.maintained_read_us", "us"},
	{"relation.flatten_spike_ms", "ms"},
	{"relation.flatten_every_ops", "count"},
	{"store.insert_us", "us"},
	{"wal.log_bytes_per_commit", "B"},
	{"wal.checkpoint_ms", "ms"},
	{"pagestore.hit_rate", "ratio"},
	{"pagestore.evictions_per_read", "count"},
	{"pagestore.write_backs_per_commit", "count"},
	{"pagestore.checkpoint_kb", "KB"},
	{"pagestore.checkpoint_ms", "ms"},
}

// zeroLayers returns every per-layer metric at 0, for a workload to fill in
// the ones it measures.
func zeroLayers() map[string]Metric {
	m := make(map[string]Metric, len(layerMetrics))
	for _, l := range layerMetrics {
		m[l.name] = Metric{0, l.unit}
	}
	return m
}

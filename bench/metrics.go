package main

// metricDef names one ledger metric. The two tables below are the single
// source of the names, units and bounds: the runner fills them, the
// printer and -compare read them, and bench_test.go checks that
// BENCHMARK.json at the repo root lists exactly the same.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: allowed worsening as a share of the baseline median
}

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them. fail_ratio (failed ÷ attempted, bound 0) is printed
// too but is not in this table: the result line carries `failed` and
// `attempted` themselves, and a metric that is normally 0 cannot take a
// relative bound.
var endToEnd = []metricDef{
	{"throughput_mbps", "MB/s", "higher", 0.25},
	{"lat_p50_us", "us", "lower", 0.25},
	{"lat_p99_us", "us", "lower", 0.25},
	{"io_amp", "ratio", "lower", 0.05},
	{"space_amp", "ratio", "lower", 0.07},
	{"setup_s", "s", "lower", 0.25},
	{"rss_mb", "MiB", "lower", 0.10},
}

// perLayer are the single-layer metrics, `<layer>.<name>` with the repo's
// package names as layers. None has a bound. README.md has the table of
// which end-to-end metric each should move, on which workload.
var perLayer = []metricDef{
	{"core.serial_us", "us", "lower", 0},
	{"storage.busy_us", "us", "lower", 0},
	{"storage.raw_us", "us", "lower", 0},
	{"storage.calls_per_op", "count", "lower", 0},
	{"storage.bytes_per_call", "B", "higher", 0},
	{"storage.syscalls_per_op", "count", "lower", 0},
	{"storage.bounce_per_op", "count", "lower", 0},
	{"storage.syncs_per_op", "count", "lower", 0},
	{"storage.sync_us", "us", "lower", 0},
	{"thinp.extents_per_op", "count", "lower", 0},
	{"thinp.self_us", "us", "lower", 0},
	{"thinp.provisions_per_op", "count", "lower", 0},
	{"thinp.alloc_us", "us", "lower", 0},
	{"thinp.shard_steals_per_op", "count", "lower", 0},
	{"thinp.shard_lock_wait_us", "us", "lower", 0},
	{"thinp.commit_us", "us", "lower", 0},
	{"thinp.meta_blocks_per_commit", "blocks", "lower", 0},
	{"thinp.commit_fold_ratio", "ratio", "higher", 0},
	{"dm.self_us", "us", "lower", 0},
	{"dm.mbps", "MB/s", "higher", 0},
	{"ioq.self_us", "us", "lower", 0},
	{"ioq.queue_wait_us", "us", "lower", 0},
	{"ioq.service_us", "us", "lower", 0},
	{"ioq.merge_ratio", "ratio", "higher", 0},
	{"ioq.reqs_per_batch", "count", "higher", 0},
	{"ioq.retries_per_op", "count", "lower", 0},
	{"core.dummy_fire_ratio", "ratio", "lower", 0},
	{"core.dummy_blocks_per_user_block", "ratio", "lower", 0},
	{"core.recycle_ms", "ms", "lower", 0},
	{"core.gc_reclaim_ratio", "ratio", "higher", 0},
	{"core.setup_ms", "ms", "lower", 0},
	{"core.open_ms", "ms", "lower", 0},
	{"core.concurrency_speedup", "x", "higher", 0},
	{"core.cpu_us_per_op", "us", "lower", 0},
	{"core.go_allocs_per_op", "count", "lower", 0},
	{"core.go_alloc_bytes_per_op", "B", "lower", 0},
	{"core.lat_p999_us", "us", "lower", 0},
	{"core.lat_max_us", "us", "lower", 0},
	{"bench.trace_overhead_pct", "%", "lower", 0},
}

// value is one measured metric. q1 and q3 are the quartiles of the per-
// window values behind a timing metric (the in-run spread); both are 0 for
// metrics measured once per run.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
}

type metrics map[string]value

// unitOf is the unit the ledger gives name.
func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("bench: metric " + name + " is not in the ledger")
}

// set records v under name with the ledger's unit.
func (m metrics) set(name string, v float64) { m[name] = value{Value: v, Unit: unitOf(name)} }

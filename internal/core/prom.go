package core

// Prometheus text exposition of the telemetry snapshot, hand-rendered on
// the standard library only (exposition format 0.0.4: `# HELP`/`# TYPE`
// lines, cumulative `le` buckets with an `+Inf` terminal, `_sum` in
// seconds, `_count`).
//
// The metric set is exactly the Telemetry struct — which is already
// deniability-safe by construction — re-keyed for scraping. The same rule
// carries over to labels: the only label ever emitted is the power-of-two
// histogram bucket edge `le` and the shard index on the per-shard gauges.
// There are no volume, hidden, dummy or real labels anywhere (pinned by
// TestPrometheusNoLeakyLabels).

import (
	"fmt"
	"io"
	"strings"

	"mobiceal/internal/obs"
	"mobiceal/internal/storage"
)

// WritePrometheus renders the snapshot in Prometheus text exposition
// format.
func WritePrometheus(w io.Writer, t Telemetry) error {
	pw := &promWriter{w: w}

	degraded := 0.0
	if t.Mode != "write" {
		degraded = 1
	}
	pw.gauge("mobiceal_pool_degraded", "Pool health: 0 in write mode, 1 once degraded.", degraded)
	pw.counter("mobiceal_pool_tx_id", "Last durable metadata transaction id.", float64(t.TxID))
	pw.gauge("mobiceal_pool_allocated_blocks", "Data blocks currently mapped.", float64(t.AllocatedBlocks))
	pw.gauge("mobiceal_pool_free_blocks", "Data blocks currently free.", float64(t.FreeBlocks))

	pw.counter("mobiceal_pool_provisions_total", "Physical blocks handed out by the allocator.", float64(t.Pool.Provisions))
	pw.counter("mobiceal_pool_releases_total", "Physical blocks released back to the pool.", float64(t.Pool.Releases))
	pw.histogram("mobiceal_pool_alloc_latency_seconds", "Latency of one allocator call.", t.Pool.AllocLat)
	pw.counter("mobiceal_pool_commit_calls_total", "Commit calls served.", float64(t.Pool.CommitCalls))
	pw.counter("mobiceal_pool_commit_flips_total", "Metadata superblock slot flips.", float64(t.Pool.CommitFlips))
	pw.histogram("mobiceal_pool_commit_total_latency_seconds", "Whole commit-round latency.", t.Pool.CommitTotalLat)
	pw.gauge("mobiceal_pool_noise_staged", "Pre-generated noise payloads staged for writes.", float64(t.Pool.NoiseStaged))

	for i, sh := range t.Pool.Shards {
		lbl := fmt.Sprintf(`shard="%d"`, i)
		pw.labeledGauge("mobiceal_pool_shard_free_blocks", "Free blocks of one allocation shard.", lbl, float64(sh.Free), i == 0)
	}

	pw.counter("mobiceal_io_submitted_total", "Requests submitted to the scheduler.", float64(t.IO.Submitted))
	pw.counter("mobiceal_io_completed_total", "Requests completed by the scheduler.", float64(t.IO.Completed))
	pw.gauge("mobiceal_io_queue_depth", "Requests waiting in submission queues.", float64(t.IO.QueueDepth))
	pw.gauge("mobiceal_io_in_flight", "Requests at the device right now.", float64(t.IO.InFlight))
	pw.counter("mobiceal_io_retries_total", "Transient-fault retries fired.", float64(t.IO.Retries))
	pw.counter("mobiceal_io_failures_total", "Requests failed hard.", float64(t.IO.Failures))
	pw.histogram("mobiceal_io_queue_latency_seconds", "Submit-to-dispatch latency.", t.IO.QueueLat)
	pw.histogram("mobiceal_io_service_latency_seconds", "Dispatch-to-complete latency.", t.IO.ServiceLat)
	pw.histogram("mobiceal_io_total_latency_seconds", "Submit-to-complete latency.", t.IO.TotalLat)

	pw.devMetrics("data", t.Data)
	pw.devMetrics("meta", t.Meta)

	if f := t.File; f != nil {
		direct := 0.0
		if f.Direct {
			direct = 1
		}
		pw.gauge("mobiceal_file_direct_mode", "1 when the image is open O_DIRECT, 0 buffered.", direct)
		pw.counter("mobiceal_file_preadv_total", "Vectored read syscalls issued to the image.", float64(f.PreadvCalls))
		pw.counter("mobiceal_file_pwritev_total", "Vectored write syscalls issued to the image.", float64(f.PwritevCalls))
		pw.counter("mobiceal_file_read_segs_total", "Segments carried by vectored reads.", float64(f.ReadSegs))
		pw.counter("mobiceal_file_write_segs_total", "Segments carried by vectored writes.", float64(f.WriteSegs))
		pw.counter("mobiceal_file_eintr_retries_total", "Transfers re-issued after EINTR.", float64(f.EintrRetries))
		pw.counter("mobiceal_file_short_transfers_total", "Transfers continued after a short count.", float64(f.ShortTransfers))
		pw.counter("mobiceal_file_bounce_copies_total", "Direct-mode transfers bounced through the aligned pool.", float64(f.BounceCopies))
		ring := 0.0
		if f.Ring {
			ring = 1
		}
		pw.gauge("mobiceal_file_ring_live", "1 when scattered extents go down as ring batches, 0 when the image has no submission ring (not yet needed, or refused by the kernel).", ring)
		pw.counter("mobiceal_file_batches_total", "Extent batches served as one ring submission.", float64(f.BatchCalls))
		pw.counter("mobiceal_file_batch_requests_total", "Requests carried by ring batches.", float64(f.BatchReqs))
	}
	return pw.err
}

// promWriter accumulates the first write error so the render code stays
// linear.
type promWriter struct {
	w   io.Writer
	err error
}

func (p *promWriter) printf(format string, args ...any) {
	if p.err == nil {
		_, p.err = fmt.Fprintf(p.w, format, args...)
	}
}

func (p *promWriter) head(name, help, typ string) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (p *promWriter) counter(name, help string, v float64) {
	p.head(name, help, "counter")
	p.printf("%s %g\n", name, v)
}

func (p *promWriter) gauge(name, help string, v float64) {
	p.head(name, help, "gauge")
	p.printf("%s %g\n", name, v)
}

func (p *promWriter) labeledGauge(name, help, label string, v float64, first bool) {
	if first {
		p.head(name, help, "gauge")
	}
	p.printf("%s{%s} %g\n", name, label, v)
}

// histogram renders the power-of-two nanosecond buckets as cumulative
// `le` edges in seconds.
func (p *promWriter) histogram(name, help string, h obs.HistSnapshot) {
	p.head(name, help, "histogram")
	var cum uint64
	for i, c := range h.Buckets {
		cum += c
		// Upper edge of bucket i is 2^(i+1) ns, exclusive; Prometheus
		// buckets are inclusive upper bounds, close enough for
		// power-of-two resolution.
		edge := float64(int64(1)<<uint(i+1)) / 1e9
		p.printf("%s_bucket{le=%q} %d\n", name, trimFloat(edge), cum)
	}
	p.printf("%s_bucket{le=\"+Inf\"} %d\n", name, h.Count)
	p.printf("%s_sum %g\n", name, float64(h.SumNS)/1e9)
	p.printf("%s_count %d\n", name, h.Count)
}

func (p *promWriter) devMetrics(region string, d storage.DeviceSnapshot) {
	pre := "mobiceal_dev_" + region
	p.counter(pre+"_read_blocks_total", "Blocks read from the "+region+" region.", float64(d.ReadBlocks))
	p.counter(pre+"_write_blocks_total", "Blocks written to the "+region+" region.", float64(d.WriteBlocks))
	p.counter(pre+"_read_bytes_total", "Bytes read from the "+region+" region.", float64(d.BytesRead))
	p.counter(pre+"_write_bytes_total", "Bytes written to the "+region+" region.", float64(d.BytesWrite))
	p.counter(pre+"_syncs_total", "Sync calls on the "+region+" region.", float64(d.Syncs))
	p.histogram(pre+"_write_latency_seconds", "Write latency of the "+region+" region.", d.WriteLat)
}

// trimFloat formats a bucket edge without trailing zeros ("1.6e-08"
// style is fine; "0.000000002" is not).
func trimFloat(f float64) string {
	s := fmt.Sprintf("%g", f)
	return strings.TrimSuffix(s, ".0")
}

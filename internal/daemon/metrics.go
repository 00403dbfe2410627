package daemon

import "repro/internal/obs"

// Daemon-level instruments on the obs default registry (see
// docs/observability.md). Event-driven counters and histograms update at
// their chokepoints; the by-state gauges are set by the /metrics handler
// right before rendering, so they are exact at every scrape without a
// per-transition bookkeeping path.
var (
	mHTTPSeconds = obs.NewHistogramVec("ch_daemon_http_request_seconds",
		"HTTP request latency by normalised route and status code.",
		obs.DefBuckets, "route", "code")
	mAdmissionRejected = obs.NewCounterVec("ch_daemon_admission_rejected_total",
		"Submits rejected at admission, by reason (queue_full, draining, not_started).",
		"reason")
	mOpsSettled = obs.NewCounterVec("ch_daemon_operations_settled_total",
		"Operations settled, by terminal status.", "status")
	mOpsEvicted = obs.NewCounter("ch_daemon_operations_evicted_total",
		"Terminal operations evicted from the registry by the retention cap.")
	mOpsByState = obs.NewGaugeVec("ch_daemon_operations",
		"Operations currently in the registry, by state (refreshed at scrape).",
		"state")
	mQueueDepth = obs.NewGauge("ch_daemon_queue_depth",
		"Admitted operations waiting for a build slot (refreshed at scrape).")
)

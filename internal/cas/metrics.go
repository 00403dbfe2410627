package cas

import "repro/internal/obs"

// Store-level instruments on the obs default registry (see
// docs/observability.md for the inventory). All hot-path updates are
// atomic; handles are resolved once at init.
var (
	mBlobReadBytes = obs.NewCounter("ch_cas_blob_read_bytes_total",
		"Bytes read from the blob store, digest-verified reads only.")
	mBlobWriteBytes = obs.NewCounter("ch_cas_blob_write_bytes_total",
		"Bytes written to the blob store (new blobs; dedup hits excluded).")
	mBlobReadSeconds = obs.NewHistogram("ch_cas_blob_read_seconds",
		"Latency of successful blob reads.", obs.DefBuckets)
	mBlobWriteSeconds = obs.NewHistogram("ch_cas_blob_write_seconds",
		"Latency of successful new-blob writes.", obs.DefBuckets)
	mJournalAppends = obs.NewCounter("ch_cas_journal_appends_total",
		"Checksummed lines appended to the store journal.")
	mFlockWaitSeconds = obs.NewHistogram("ch_cas_flock_wait_seconds",
		"Time spent waiting for the exclusive store flock (granted or not).", obs.DefBuckets)
	mBusy = obs.NewCounter("ch_cas_busy_total",
		"Exclusive lock attempts that timed out with ErrBusy.")
	mRetries = obs.NewCounter("ch_cas_retries_total",
		"Retries of transient cas failures (attempts beyond the first).")
	mGCSweptBlobs = obs.NewCounter("ch_cas_gc_swept_blobs_total",
		"Blob files deleted by garbage collection.")
	mGCSweptBytes = obs.NewCounter("ch_cas_gc_swept_bytes_total",
		"Bytes freed by garbage collection.")
	mQuarantines = obs.NewCounter("ch_cas_quarantines_total",
		"Damaged files moved to quarantine (blobs and journal lines).")
	mOpenSeconds = obs.NewHistogram("ch_cas_open_seconds",
		"Latency of opening a store, open-time validation included.", obs.DefBuckets)
)

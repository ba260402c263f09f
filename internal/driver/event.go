package driver

// EventKind classifies a progress event.
type EventKind string

const (
	// EventStart: a shard's attempt begins (Done cells already
	// checkpointed when resuming).
	EventStart EventKind = "start"
	// EventCell: a shard folded (and checkpointed) one more grid cell.
	EventCell EventKind = "cell"
	// EventShardDone: a shard's artifact is complete on disk.
	EventShardDone EventKind = "shard-done"
	// EventRetry: an attempt of the pool failed with this shard
	// unfinished, and will be retried (resuming from the shard's
	// checkpoint when one exists).
	EventRetry EventKind = "retry"
	// EventDiscard: a shard artifact on disk was corrupt or misdelivered
	// (wrong shard slot, same campaign) and has been deleted; the shard
	// re-runs. Err carries the reason.
	EventDiscard EventKind = "discard"
)

// Event is one per-shard progress notification. Events are delivered
// serially (never concurrently) but interleave across shards.
//
// An Event marshals to one compact JSON object (the `mcast
// -progress-json` stream), so every field that should reach an external
// watcher carries a tag. Err itself cannot round-trip JSON — error is
// an interface — so emit mirrors it into ErrText and Err is excluded
// from the encoding; in-process consumers keep the typed error.
type Event struct {
	// Shard is the shard index, 0 ≤ Shard < Shards.
	Shard int `json:"shard"`
	// Kind classifies the event.
	Kind EventKind `json:"kind"`
	// Done and Total count this shard's grid cells (local, not global).
	Done  int `json:"done"`
	Total int `json:"total"`
	// Attempt numbers the pool's attempt, starting at 0.
	Attempt int `json:"attempt"`
	// Err carries the failure on EventRetry and EventDiscard. In-process
	// only: JSON consumers read ErrText instead.
	Err error `json:"-"`
	// ErrText is Err's message, filled in by the driver as it emits the
	// event — the JSON-safe image of Err.
	ErrText string `json:"err,omitempty"`
	// Cache annotates an EventCell when the campaign runs with a result
	// cache: CacheHit for a cell replayed from the cache, CacheMiss for
	// one that simulated (and stored its result). Empty — and absent
	// from the JSON stream — when no cache is configured.
	Cache string `json:"cache,omitempty"`
}

const (
	// CacheHit marks a cell whose result was replayed from the cache.
	CacheHit = "hit"
	// CacheMiss marks a cell that was simulated.
	CacheMiss = "miss"
)

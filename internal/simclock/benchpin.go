// Bench pins: nothing in the product uses ShardedQueue any more: the
// sharded core it served is deleted (docs/performance.md, "Sharding
// verdict"). The file stays only because bench/'s sharded_hold probe
// compiles against NewShardedQueue, Push and Pop (and Len); no program
// may use them (TestBenchPinsHaveNoProgramCaller). ROADMAP item 1a
// deletes this file, its test and Queue.pushSeq with it.

package simclock

// ShardedQueue is a set of per-shard event queues that together
// behave exactly like one Queue: every push is stamped from a single
// global insertion sequence, and Pop merges the shard heads by the
// same (At, class, seq) delivery order a lone Queue uses. Because
// the stamp is global, the merged pop order is byte-identical to
// pushing the same events into a single Queue in the same order —
// ShardedQueue changes where events are stored, never when they are
// delivered.
// Pushes and pops are not synchronized and must happen from one
// goroutine at a time, just like Queue. Bench pin (ROADMAP item 1a).
type ShardedQueue struct {
	seq    uint64
	shards []Queue
}

// NewShardedQueue returns a queue with n member shards. n is clamped
// to at least 1. Bench pin (ROADMAP item 1a).
func NewShardedQueue(n int) *ShardedQueue {
	if n < 1 {
		n = 1
	}
	return &ShardedQueue{shards: make([]Queue, n)}
}

// Len counts pending events in all shards. Bench pin (ROADMAP item 1a).
func (s *ShardedQueue) Len() int {
	n := 0
	for i := range s.shards {
		n += s.shards[i].Len()
	}
	return n
}

// Push schedules value on the given shard for delivery at time at,
// with the same global-order semantics as Queue.Push. Bench pin
// (ROADMAP item 1a).
func (s *ShardedQueue) Push(shard int, at Time, value any) {
	s.shards[shard].pushSeq(at, 1, value, s.seq)
	s.seq++
}

// min returns the index of the shard whose head event delivers first,
// or -1 if every shard is empty.
func (s *ShardedQueue) min() int {
	best := -1
	var bestEv Event
	for i := range s.shards {
		ev, ok := s.shards[i].Peek()
		if !ok {
			continue
		}
		if best < 0 || ev.before(&bestEv) {
			best, bestEv = i, ev
		}
	}
	return best
}

// Pop removes and returns the next event across all shards. The
// second result is false if every shard is empty. Bench pin
// (ROADMAP item 1a).
func (s *ShardedQueue) Pop() (Event, bool) {
	i := s.min()
	if i < 0 {
		return Event{}, false
	}
	return s.shards[i].Pop()
}

// Nothing in the product uses ShardedQueue any more: the sharded core
// it served is deleted (docs/performance.md, "Sharding verdict") and
// the simulator holds a plain Queue. The file stays, unchanged below
// this note, only because bench/'s simclock.sharded_hold_ns_100k probe
// compiles against NewShardedQueue; the benchmark PR that drops the
// probe deletes this file, its test and Queue.pushSeq with it.

package simclock

// ShardedQueue is a set of per-shard event queues that together
// behave exactly like one Queue: every push is stamped from a single
// global insertion sequence, and Peek/Pop merge the shard heads by
// the same (At, class, seq) delivery order a lone Queue uses. Because
// the stamp is global, the merged pop order is byte-identical to
// pushing the same events into a single Queue in the same order —
// ShardedQueue changes where events are stored, never when they are
// delivered.
//
// The simulator routes each org's task events to a fixed shard so a
// sharded run can drain and refill shard queues from parallel workers
// between barriers; pushes and pops themselves are not synchronized
// and must happen from one goroutine at a time, just like Queue.
type ShardedQueue struct {
	seq    uint64
	shards []Queue
}

// NewShardedQueue returns a queue with n member shards. n is clamped
// to at least 1.
func NewShardedQueue(n int) *ShardedQueue {
	if n < 1 {
		n = 1
	}
	return &ShardedQueue{shards: make([]Queue, n)}
}

// Shards reports the number of member shards.
func (s *ShardedQueue) Shards() int { return len(s.shards) }

// Len reports the number of pending events across all shards.
func (s *ShardedQueue) Len() int {
	n := 0
	for i := range s.shards {
		n += s.shards[i].Len()
	}
	return n
}

// Push schedules value on the given shard for delivery at time at,
// with the same global-order semantics as Queue.Push.
func (s *ShardedQueue) Push(shard int, at Time, value any) {
	s.shards[shard].pushSeq(at, 1, value, s.seq)
	s.seq++
}

// PushFront schedules value on the given shard ahead of every
// same-instant Push event, with the same global-order semantics as
// Queue.PushFront.
func (s *ShardedQueue) PushFront(shard int, at Time, value any) {
	s.shards[shard].pushSeq(at, 0, value, s.seq)
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

// Peek returns the next event across all shards without removing it.
// The second result is false if every shard is empty.
func (s *ShardedQueue) Peek() (Event, bool) {
	i := s.min()
	if i < 0 {
		return Event{}, false
	}
	return s.shards[i].Peek()
}

// Pop removes and returns the next event across all shards. The
// second result is false if every shard is empty.
func (s *ShardedQueue) Pop() (Event, bool) {
	i := s.min()
	if i < 0 {
		return Event{}, false
	}
	return s.shards[i].Pop()
}

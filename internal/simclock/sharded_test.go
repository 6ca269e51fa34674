package simclock

import (
	"math/rand"
	"testing"
)

// TestShardedQueueMatchesQueue drives a ShardedQueue and a plain
// Queue with the same randomized push/pop script (shard assignment
// varying per push) and requires identical pop sequences — the
// property the simulator's byte-determinism contract rests on.
func TestShardedQueueMatchesQueue(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 4, 7} {
		rng := rand.New(rand.NewSource(int64(41 + shards)))
		var ref Queue
		sq := NewShardedQueue(shards)
		if len(sq.shards) != shards {
			t.Fatalf("%d shards, want %d", len(sq.shards), shards)
		}
		now := Time(0)
		for op := 0; op < 20000; op++ {
			switch {
			case sq.Len() > 0 && rng.Intn(3) == 0:
				want, _ := ref.Pop()
				got, ok := sq.Pop()
				if !ok {
					t.Fatalf("shards=%d op=%d: sharded queue empty, ref had %+v", shards, op, want)
				}
				if got.At != want.At || got.Value != want.Value {
					t.Fatalf("shards=%d op=%d: pop = {%d %v}, want {%d %v}",
						shards, op, got.At, got.Value, want.At, want.Value)
				}
				if got.At < now {
					t.Fatalf("shards=%d op=%d: time went backwards %d -> %d", shards, op, now, got.At)
				}
				now = got.At
			default:
				// Mix of near-future, same-instant, and far events,
				// spread across shards.
				at := now + Time(rng.Intn(50))
				if rng.Intn(8) == 0 {
					at = now + Time(10000+rng.Intn(5000))
				}
				shard := rng.Intn(shards)
				ref.Push(at, op)
				sq.Push(shard, at, op)
			}
			if sq.Len() != ref.Len() {
				t.Fatalf("shards=%d op=%d: Len = %d, want %d", shards, op, sq.Len(), ref.Len())
			}
		}
		for ref.Len() > 0 {
			want, _ := ref.Pop()
			got, ok := sq.Pop()
			if !ok || got.At != want.At || got.Value != want.Value {
				t.Fatalf("shards=%d drain: pop = {%d %v %v}, want {%d %v}",
					shards, got.At, got.Value, ok, want.At, want.Value)
			}
		}
		if _, ok := sq.Pop(); ok {
			t.Fatalf("shards=%d: sharded queue not empty after ref drained", shards)
		}
	}
}

// TestNewShardedQueueClamps verifies the shard-count floor.
func TestNewShardedQueueClamps(t *testing.T) {
	for _, n := range []int{0, -3} {
		if got := len(NewShardedQueue(n).shards); got != 1 {
			t.Fatalf("NewShardedQueue(%d) has %d shards, want 1", n, got)
		}
	}
}

package device

import "testing"

// TestPoolStatsNowIsPassive: reading pool stats never starts the pool, and
// the chunk counters are monotone.
func TestPoolStatsNowIsPassive(t *testing.T) {
	before := poolAcct.started.Load()
	st1 := PoolStatsNow()
	if poolAcct.started.Load() != before {
		t.Fatal("PoolStatsNow flipped the started flag")
	}
	if st1.ChunksClaimed < 0 || st1.ChunksStolen < 0 || st1.QueueDepth < 0 {
		t.Fatalf("negative counters: %+v", st1)
	}
	if !before && st1.Workers != 0 {
		t.Fatalf("workers reported before pool start: %+v", st1)
	}
	st2 := PoolStatsNow()
	if st2.ChunksClaimed < st1.ChunksClaimed || st2.ChunksStolen < st1.ChunksStolen {
		t.Fatalf("counters regressed: %+v then %+v", st1, st2)
	}
}

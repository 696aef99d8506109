package thinp

import (
	"bytes"
	"testing"
	"time"

	"mobiceal/internal/obs"
	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
)

// TestFlushElidesUnchangedRound pins the flush elision rule: a flush over
// an unchanged pool writes no metadata and makes no transaction, a flush
// after a mutation commits it, and an explicit Commit always makes a
// transaction — even when nothing changed.
func TestFlushElidesUnchangedRound(t *testing.T) {
	data := storage.NewMemDevice(blockSize, 1024)
	meta := storage.NewStatsDevice(storage.NewMemDevice(blockSize, MetaBlocksNeeded(1024, blockSize)))
	rec := obs.NewFlightRecorder(1024)
	p, err := CreatePool(data, meta, Options{Entropy: prng.NewSeededEntropy(5), Flight: rec})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CreateThin(1, 64); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	thin, err := p.Thin(1)
	if err != nil {
		t.Fatal(err)
	}
	rec.SetEnabled(true)
	flush := func() {
		t.Helper()
		if err := storage.Do(thin, []storage.Req{{Op: storage.OpSync, FID: rec.NextID()}}); err != nil {
			t.Fatal(err)
		}
	}
	type state struct{ tx, flips, metaWrites, metaSyncs uint64 }
	now := func() state {
		m := meta.Metrics()
		return state{p.TransactionID(), p.MetricsSnapshot().CommitFlips, m.WriteBlocks.Load(), m.Syncs.Load()}
	}

	before := now()
	flush()
	if got := now(); got != before {
		t.Fatalf("flush of an unchanged pool: %+v -> %+v, want no transaction and no metadata I/O", before, got)
	}

	if err := thin.WriteBlock(3, bytes.Repeat([]byte{7}, blockSize)); err != nil {
		t.Fatal(err)
	}
	flush()
	got := now()
	if got.tx != before.tx+1 || got.flips != before.flips+1 || got.metaWrites == before.metaWrites {
		t.Fatalf("flush after a provisioning write: %+v -> %+v, want one transaction", before, got)
	}

	// Overwriting a mapped block changes no metadata: the flush elides.
	before = got
	if err := thin.WriteBlock(3, bytes.Repeat([]byte{8}, blockSize)); err != nil {
		t.Fatal(err)
	}
	flush()
	if got := now(); got != before {
		t.Fatalf("flush after an overwrite: %+v -> %+v, want no transaction", before, got)
	}

	// Commit keeps its contract over the same unchanged pool.
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := now(); got.tx != before.tx+1 || got.flips != before.flips+1 {
		t.Fatalf("explicit Commit of an unchanged pool: %+v -> %+v, want one transaction", before, got)
	}
	if s := p.MetricsSnapshot(); s.CommitCalls != s.CommitFlips+2 {
		t.Fatalf("CommitCalls %d, CommitFlips %d: want the two elided flushes counted as calls only",
			s.CommitCalls, s.CommitFlips)
	}

	// The trace sees the same four rounds: two flips (the flush after the
	// write, the explicit Commit) and two elided flushes.
	rep := obs.Analyze(rec.Events())
	if c := rep.Commits; c.Rounds != 2 || c.Elided != 2 || c.ElidedFolded != 2 || c.CallsPerFlip != 2 {
		t.Fatalf("trace commits %+v; want 2 flips, 2 elided rounds, 2 calls per flip", c)
	}
}

// TestFlushElisionDurability is the durability half of the elision rule.
// Two thins write, then flush concurrently. Round 1, led by the first
// flusher, folds both writes and is held in its slot I/O. The second
// flusher's delta was already folded, so its own round finds the pool
// unchanged — but it must still not return before round 1's flip: a
// flush that returned has to survive a power cut. Round 1 is held at its
// first metadata sync: its slot blocks are written, its superblock is not.
func TestFlushElisionDurability(t *testing.T) {
	for _, tc := range []struct {
		name string
		cut  bool
	}{{"flip", false}, {"power-cut", true}} {
		cut := tc.cut
		t.Run(tc.name, func(t *testing.T) {
			data := storage.NewMemDevice(blockSize, 1024)
			crash := storage.NewCrashDevice(storage.NewMemDevice(blockSize, MetaBlocksNeeded(1024, blockSize)))
			meta := newGateDevice(crash)
			p, err := CreatePool(data, meta, Options{Entropy: prng.NewSeededEntropy(6)})
			if err != nil {
				t.Fatal(err)
			}
			for id := 1; id <= 2; id++ {
				if err := p.CreateThin(id, 64); err != nil {
					t.Fatal(err)
				}
			}
			if err := p.Commit(); err != nil {
				t.Fatal(err)
			}
			tx0, flips0 := p.TransactionID(), p.MetricsSnapshot().CommitFlips
			thins := make([]*Thin, 2)
			payload := func(id int) []byte { return bytes.Repeat([]byte{byte(id)}, blockSize) }
			for i := range thins {
				if thins[i], err = p.Thin(i + 1); err != nil {
					t.Fatal(err)
				}
				if err := thins[i].WriteBlock(5, payload(i+1)); err != nil {
					t.Fatal(err)
				}
			}

			meta.armed.Store(true)
			errs := [2]chan error{make(chan error, 1), make(chan error, 1)}
			go func() { errs[0] <- thins[0].Sync() }()
			<-meta.waiting // round 1 folded both writes and holds its slot I/O
			go func() { errs[1] <- thins[1].Sync() }()

			var returned [2]bool
			select {
			case err := <-errs[1]:
				returned[1] = err == nil
				t.Errorf("second flush returned (err %v) while round 1's flip was held", err)
			case <-time.After(50 * time.Millisecond):
			}
			if cut {
				crash.PowerCutDropAll()
			}
			close(meta.gate)
			for i, ch := range errs {
				if returned[i] {
					continue
				}
				err := <-ch
				returned[i] = err == nil
				if !cut && err != nil {
					t.Fatalf("flush %d: %v", i+1, err)
				}
			}
			if !cut {
				// The second flush's round elided: one transaction for both.
				if tx, flips := p.TransactionID(), p.MetricsSnapshot().CommitFlips; tx != tx0+1 || flips != flips0+1 {
					t.Fatalf("tx %d -> %d, flips %d -> %d; want one transaction for both flushes", tx0, tx, flips0, flips)
				}
			}

			crash.Restart()
			re, err := OpenPool(data, crash, Options{Entropy: prng.NewSeededEntropy(7)})
			if err != nil {
				t.Fatal(err)
			}
			for i, ok := range returned {
				if !ok {
					continue
				}
				thin, err := re.Thin(i + 1)
				if err != nil {
					t.Fatal(err)
				}
				buf := make([]byte, blockSize)
				if err := thin.ReadBlock(5, buf); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf, payload(i+1)) {
					t.Fatalf("thin %d: write lost although its flush returned", i+1)
				}
			}
		})
	}
}

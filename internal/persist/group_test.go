package persist_test

import (
	"errors"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/persist"
)

// TestGroupCommitMultiWriter: the tentpole contract — N concurrent writers
// Append then park on Commit; every Commit returns with its record durable,
// and recovery after a clean close sees every acknowledged write.
func TestGroupCommitMultiWriter(t *testing.T) {
	dir := t.TempDir()
	wal, err := persist.OpenWAL(dir, persist.WALOptions{Policy: persist.FsyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 25
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				lsn, err := wal.Append(persist.OpSet, "", u64key(uint64(g*perWriter+i)), uint64(i))
				if err != nil {
					errs[g] = err
					return
				}
				if err := wal.Commit(lsn); err != nil {
					errs[g] = err
					return
				}
				if d := wal.DurableLSN(); d < lsn {
					errs[g] = errors.New("Commit returned before DurableLSN covered the record")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", g, err)
		}
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	got, _, err := persist.RecoverIndex(dir, mkIndex)
	if err != nil || got.Len() != writers*perWriter {
		t.Fatalf("recovered %d records, want %d (%v)", got.Len(), writers*perWriter, err)
	}
}

// TestGroupCommitStickyErrorFanOut: an injected fsync failure must fail
// EVERY parked writer — not just the next Append — and poison the WAL for
// everything after it. The failing fsync is held on a gate until all
// writers have appended, so they are parked on the same batch when the
// failure lands.
func TestGroupCommitStickyErrorFanOut(t *testing.T) {
	dir := t.TempDir()
	injected := errors.New("injected fsync failure")
	var fail atomic.Bool
	release := make(chan struct{})
	wal, err := persist.OpenWAL(dir, persist.WALOptions{
		Policy: persist.FsyncGroup,
		FsyncFn: func(f *os.File) error {
			if fail.Load() {
				<-release
				return injected
			}
			return f.Sync()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	fail.Store(true)
	const writers = 8
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lsn, err := wal.Append(persist.OpSet, "", u64key(uint64(g)), 1)
			if err != nil {
				errs[g] = err
				return
			}
			errs[g] = wal.Commit(lsn)
		}(g)
	}
	// The first batch's fsync waits at the gate, and fails only after every
	// writer has appended behind it and had time to park.
	for deadline := time.Now().Add(10 * time.Second); wal.LSN() < writers; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d writers appended", wal.LSN(), writers)
		}
	}
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	for g, err := range errs {
		if !errors.Is(err, injected) {
			t.Fatalf("parked writer %d got %v, want the injected fsync error", g, err)
		}
	}
	// Sticky: the WAL must refuse further appends rather than acknowledge
	// writes it can never make durable.
	if _, err := wal.Append(persist.OpSet, "", []byte("after"), 1); !errors.Is(err, injected) {
		t.Fatalf("Append after poisoned sync = %v, want sticky error", err)
	}
	if err := wal.Commit(0); err != nil {
		// LSN 0 was durable before the failure; Commit below the watermark
		// stays satisfiable.
		t.Fatalf("Commit(0) = %v, want nil", err)
	}
	if err := wal.Close(); !errors.Is(err, injected) {
		t.Fatalf("Close = %v, want the sticky sync error surfaced", err)
	}
}

// TestCloseWithParkedWriters: Close during a pending group sync must
// complete that sync and release every parked writer with its durability
// intact — no goroutine leak, no writer stuck, no acknowledged loss. The
// fsync is blocked on a gate so the writers are provably parked when Close
// is called.
func TestCloseWithParkedWriters(t *testing.T) {
	dir := t.TempDir()
	var gate atomic.Bool
	started := make(chan struct{}, 16)
	release := make(chan struct{})
	wal, err := persist.OpenWAL(dir, persist.WALOptions{
		Policy:        persist.FsyncGroup,
		GroupMaxDelay: -1, // sync immediately; the gate is the only delay
		FsyncFn: func(f *os.File) error {
			if gate.Load() {
				started <- struct{}{}
				<-release
			}
			return f.Sync()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	gate.Store(true)
	const writers = 8
	// Append everything up front (appends only buffer under FsyncGroup), so
	// Close below cannot race an Append; the goroutines park on Commit.
	lsns := make([]uint64, writers)
	for g := 0; g < writers; g++ {
		if lsns[g], err = wal.Append(persist.OpSet, "", u64key(uint64(g)), 1); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs[g] = wal.Commit(lsns[g])
		}(g)
	}
	<-started // the syncer is inside the blocked fsync: writers are parked
	time.Sleep(10 * time.Millisecond)
	closeErr := make(chan error, 1)
	go func() { closeErr <- wal.Close() }()
	// Close must be waiting on the syncer, not force-closing the file out
	// from under it. Release the gate and everything must drain.
	time.Sleep(10 * time.Millisecond)
	gate.Store(false)
	close(release)
	if err := <-closeErr; err != nil {
		t.Fatalf("Close = %v", err)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("writer %d parked at Close got %v, want nil (sync completed)", g, err)
		}
	}
	got, _, err := persist.RecoverIndex(dir, mkIndex)
	if err != nil || got.Len() != writers {
		t.Fatalf("recovered %d, want %d (%v)", got.Len(), writers, err)
	}
}

// TestGroupRotation: under group/async the syncer owns segment rotation;
// with a tiny SegmentBytes the log must still rotate, stay recoverable,
// and keep LSNs continuous across boundaries.
func TestGroupRotation(t *testing.T) {
	for _, pol := range []persist.FsyncPolicy{persist.FsyncGroup, persist.FsyncAsync} {
		t.Run(pol.String(), func(t *testing.T) {
			dir := t.TempDir()
			wal, err := persist.OpenWAL(dir, persist.WALOptions{
				Policy:        pol,
				SegmentBytes:  256,
				GroupMaxDelay: -1,
			})
			if err != nil {
				t.Fatal(err)
			}
			const n = 100
			var last uint64
			for i := 0; i < n; i++ {
				if last, err = wal.Append(persist.OpSet, "", u64key(uint64(i)), uint64(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := wal.Commit(last); err != nil {
				t.Fatal(err)
			}
			if segs := walSegmentNames(t, dir); len(segs) < 2 {
				t.Fatalf("no rotation happened: %d segment(s) for %d records at SegmentBytes=256", len(segs), n)
			}
			if err := wal.Close(); err != nil {
				t.Fatal(err)
			}
			got, res, err := persist.RecoverIndex(dir, mkIndex)
			if err != nil || got.Len() != n {
				t.Fatalf("recovered %d, want %d (%v)", got.Len(), n, err)
			}
			if res.LastLSN != last {
				t.Fatalf("recovery LastLSN = %d, want %d", res.LastLSN, last)
			}
		})
	}
}

// TestCommitInlineUnderNonGroupPolicies: Commit is a universal durability
// barrier — under policies without a syncer it syncs inline instead of
// parking, so WAIT-style callers can rely on it regardless of -fsync.
func TestCommitInlineUnderNonGroupPolicies(t *testing.T) {
	for _, pol := range []persist.FsyncPolicy{persist.FsyncNo, persist.FsyncEverySec, persist.FsyncAlways} {
		t.Run(pol.String(), func(t *testing.T) {
			dir := t.TempDir()
			wal, err := persist.OpenWAL(dir, persist.WALOptions{Policy: pol})
			if err != nil {
				t.Fatal(err)
			}
			defer wal.Close()
			var last uint64
			for i := 0; i < 10; i++ {
				if last, err = wal.Append(persist.OpSet, "", u64key(uint64(i)), uint64(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := wal.Commit(last); err != nil {
				t.Fatal(err)
			}
			if d := wal.DurableLSN(); d < last {
				t.Fatalf("DurableLSN = %d after Commit(%d)", d, last)
			}
			if err := wal.Commit(last + 1); err == nil {
				t.Fatal("Commit past the last assigned LSN must error, not park forever")
			}
		})
	}
}

// TestAsyncDurableWatermark: FsyncAsync promises the watermark catches up
// on its own — no Commit, no Sync — within a few group cycles. Its callers
// do not park, so GroupMaxDelay stays its pacing: the batch is fsynced
// once the window closes, not before.
func TestAsyncDurableWatermark(t *testing.T) {
	const maxDelay = 300 * time.Millisecond
	dir := t.TempDir()
	wal, err := persist.OpenWAL(dir, persist.WALOptions{Policy: persist.FsyncAsync, GroupMaxDelay: maxDelay})
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	start := time.Now()
	var last uint64
	for i := 0; i < 20; i++ {
		if last, err = wal.Append(persist.OpSet, "", u64key(uint64(i)), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for wal.DurableLSN() < last {
		if time.Since(start) > maxDelay+5*time.Second {
			t.Fatalf("DurableLSN stuck at %d, want ≥ %d", wal.DurableLSN(), last)
		}
		time.Sleep(time.Millisecond)
	}
	if took := time.Since(start); took < maxDelay {
		t.Fatalf("async batch fsynced after %v, before its %v window closed", took, maxDelay)
	}
	if got := wal.AppendedBytes(); got <= 0 {
		t.Fatalf("AppendedBytes = %d, want > 0", got)
	}
}

// TestGroupCommitLoneWriter: GroupMaxDelay is a cap, not a fixed sleep. A
// lone writer that has parked is the whole batch, so its Commit returns
// after one fsync, well inside a 1 s cap.
func TestGroupCommitLoneWriter(t *testing.T) {
	const maxDelay = time.Second
	wal, err := persist.OpenWAL(t.TempDir(), persist.WALOptions{Policy: persist.FsyncGroup, GroupMaxDelay: maxDelay})
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	for i := 0; i < 3; i++ {
		start := time.Now()
		lsn, err := wal.Append(persist.OpSet, "", u64key(uint64(i)), 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := wal.Commit(lsn); err != nil {
			t.Fatal(err)
		}
		if took := time.Since(start); took > maxDelay/4 {
			t.Fatalf("lone writer's Commit #%d took %v against a %v cap: the syncer waited for writers that do not exist", i, took, maxDelay)
		}
	}
}

// TestGroupCommitWaitsForUnparkedWriter: the batch stays open while an
// appended record's writer has not parked. Writer A parks while writer B
// has appended but not parked: nothing is fsynced until B parks, and then
// one fsync covers both.
func TestGroupCommitWaitsForUnparkedWriter(t *testing.T) {
	const maxDelay = 5 * time.Second
	var fsyncs atomic.Int64
	wal, err := persist.OpenWAL(t.TempDir(), persist.WALOptions{
		Policy:        persist.FsyncGroup,
		GroupMaxDelay: maxDelay,
		FsyncFn: func(f *os.File) error {
			fsyncs.Add(1)
			return f.Sync()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	start := time.Now()
	before := fsyncs.Load() // the segment header's fsync at open
	lsnA, err := wal.Append(persist.OpSet, "", []byte("a"), 1)
	if err != nil {
		t.Fatal(err)
	}
	lsnB, err := wal.Append(persist.OpSet, "", []byte("b"), 1)
	if err != nil {
		t.Fatal(err)
	}
	doneA := make(chan error, 1)
	go func() { doneA <- wal.Commit(lsnA) }()
	time.Sleep(50 * time.Millisecond)
	select {
	case err := <-doneA:
		t.Fatalf("A's Commit returned (%v) while B had not parked", err)
	default:
	}
	if n := fsyncs.Load() - before; n != 0 {
		t.Fatalf("%d fsync(s) before B parked, want 0", n)
	}
	if err := wal.Commit(lsnB); err != nil {
		t.Fatal(err)
	}
	if err := <-doneA; err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > maxDelay/2 {
		t.Fatalf("commits took %v: the syncer waited for the %v cap after both writers parked", took, maxDelay)
	}
	if n := fsyncs.Load() - before; n != 1 {
		t.Fatalf("%d fsyncs covered A and B, want 1", n)
	}
	if d := wal.DurableLSN(); d < lsnB {
		t.Fatalf("DurableLSN = %d, want ≥ %d", d, lsnB)
	}
}

package wal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/trajectory"
)

func counterValue(t *testing.T, reg *metrics.Registry, name string) float64 {
	t.Helper()
	for _, m := range reg.Snapshot() {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// TestLogTruncatedAtEveryByteOffset is the exhaustive crash-point sweep: a
// multi-record log chopped at every possible byte offset — mid-header,
// mid-length-prefix, mid-payload, mid-CRC — must always reopen, recover
// exactly the record prefix that fits below the cut, count the torn tail in
// wal_torn_tail_recoveries_total, and accept appends again.
func TestLogTruncatedAtEveryByteOffset(t *testing.T) {
	const nRecords = 6
	const recSize = 4 + (1 + 1 + 24) + 4 // len prefix + payload(idLen+id+3 floats) + crc

	full := filepath.Join(t.TempDir(), "full.wal")
	l, err := Open(full, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nRecords; i++ {
		if err := l.Append(Record{ID: "x", Sample: trajectory.S(float64(i), float64(i), 0)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	wantSize := int64(len(headerMagic) + nRecords*recSize)
	if int64(len(data)) != wantSize {
		t.Fatalf("log size %d, want %d — record framing changed, update the test", len(data), wantSize)
	}

	dir := t.TempDir()
	for cut := 0; cut <= len(data); cut++ {
		path := filepath.Join(dir, "cut.wal")
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		reg := metrics.NewRegistry()
		var got []Record
		lc, err := openLog(fault.OS, path, func(r Record) error { got = append(got, r); return nil }, newInstruments(reg))
		if err != nil {
			t.Fatalf("cut at byte %d: reopen failed: %v", cut, err)
		}
		wantRecs := 0
		if cut >= len(headerMagic) {
			wantRecs = (cut - len(headerMagic)) / recSize
		}
		if len(got) != wantRecs {
			t.Fatalf("cut at byte %d: recovered %d records, want %d", cut, len(got), wantRecs)
		}
		for i, r := range got {
			if r.ID != "x" || r.Sample.T != float64(i) {
				t.Fatalf("cut at byte %d: record %d = %+v — not the logged prefix", cut, i, r)
			}
		}
		torn := cut != 0 && (cut < len(headerMagic) || (cut-len(headerMagic))%recSize != 0)
		wantTorn := 0.0
		if torn {
			wantTorn = 1
		}
		if got := counterValue(t, reg, "wal_torn_tail_recoveries_total"); got != wantTorn {
			t.Fatalf("cut at byte %d: torn-tail counter = %v, want %v", cut, got, wantTorn)
		}
		// The recovered log must be appendable: durability continues after
		// any crash shape.
		if err := lc.Append(Record{ID: "x", Sample: trajectory.S(1e9, 0, 0)}); err != nil {
			t.Fatalf("cut at byte %d: append after recovery: %v", cut, err)
		}
		if err := lc.Close(); err != nil {
			t.Fatalf("cut at byte %d: close: %v", cut, err)
		}
		n := 0
		lc2, err := openLog(fault.OS, path, func(Record) error { n++; return nil }, newInstruments(metrics.NewRegistry()))
		if err != nil {
			t.Fatalf("cut at byte %d: second reopen: %v", cut, err)
		}
		if n != wantRecs+1 {
			t.Fatalf("cut at byte %d: second reopen saw %d records, want %d", cut, n, wantRecs+1)
		}
		_ = lc2.Close()
	}
}

// A failed write mid-append leaves the in-memory store ahead of the log; the
// durable store must turn sticky-poisoned rather than keep acknowledging
// appends it cannot make durable. A restart heals it: the reopened store is
// the replay of the log, which holds exactly the acknowledged prefix.
func TestDurableStorePoisonAndHeal(t *testing.T) {
	reg := metrics.NewRegistry()
	set := fault.NewSet(reg)
	fsys := fault.NewFS(fault.OS, set)
	path := filepath.Join(t.TempDir(), "trips.wal")

	d, err := OpenDurableFS(fsys, path, store.Options{Metrics: reg}) // raw mode: every sample logged
	if err != nil {
		t.Fatal(err)
	}
	d.SetSyncEvery(0) // flush every append so the injected write error surfaces in Append
	for i := 0; i < 5; i++ {
		if err := d.Append("car", trajectory.S(float64(i), float64(i), 0)); err != nil {
			t.Fatal(err)
		}
	}

	set.Enable(fault.SiteWrite, fault.OnCall(1), fault.Action{})
	if err := d.Append("car", trajectory.S(5, 5, 0)); err == nil {
		t.Fatal("append with failing write succeeded")
	}
	set.Disable(fault.SiteWrite)

	// The store is ahead of the log now; every write-path call must report
	// the sticky poison even though the disk works again.
	if err := d.Append("car", trajectory.S(6, 6, 0)); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("append after failure = %v, want ErrPoisoned", err)
	}
	if err := d.Flush(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("flush after failure = %v, want ErrPoisoned", err)
	}
	if got := counterValue(t, reg, "fault_hits_total"); got != 1 {
		t.Errorf("fault_hits_total = %v, want 1", got)
	}
	if err := d.Close(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("close after failure = %v, want ErrPoisoned", err)
	}

	// Restart: exactly the five acknowledged samples come back, not the
	// sixth whose log write failed, and the write path is open again.
	d2, err := OpenDurableFS(fault.OS, path, store.Options{Metrics: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	got, _ := d2.Snapshot("car")
	if got.Len() != 5 {
		t.Fatalf("recovered %d samples, want the 5 acknowledged", got.Len())
	}
	for i, s := range got {
		if want := trajectory.S(float64(i), float64(i), 0); s != want {
			t.Fatalf("sample %d = %v, want %v", i, s, want)
		}
	}
	if err := d2.Append("car", trajectory.S(5, 5, 0)); err != nil {
		t.Fatalf("append after restart: %v", err)
	}
}

// A failed fsync is as poisonous as a failed write: the acknowledgement
// contract (append returns nil ⇒ record durable under SyncEvery) would
// otherwise silently break.
func TestDurableStorePoisonOnSyncFailure(t *testing.T) {
	reg := metrics.NewRegistry()
	set := fault.NewSet(reg)
	path := filepath.Join(t.TempDir(), "trips.wal")
	d, err := OpenDurableFS(fault.NewFS(fault.OS, set), path, store.Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.SetSyncEvery(0)
	if err := d.Append("car", trajectory.S(0, 0, 0)); err != nil {
		t.Fatal(err)
	}
	set.Enable(fault.SiteSync, fault.OnCall(1), fault.Action{})
	if err := d.Append("car", trajectory.S(1, 0, 0)); err == nil {
		t.Fatal("append with failing fsync succeeded")
	}
	set.Disable(fault.SiteSync)
	if err := d.Append("car", trajectory.S(2, 0, 0)); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("append after sync failure = %v, want ErrPoisoned", err)
	}
}

package wal

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/compress"
	"repro/internal/gpsgen"
	"repro/internal/metrics"
	"repro/internal/sed"
	"repro/internal/store"
	"repro/internal/stream"
	"repro/internal/trajectory"
)

func logPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "trips.wal")
}

func TestLogAppendReplay(t *testing.T) {
	path := logPath(t)
	l, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{
		{ID: "a", Sample: trajectory.S(0, 1, 2)},
		{ID: "b", Sample: trajectory.S(5, -3, 4)},
		{ID: "a", Sample: trajectory.S(10, 9, 9)},
	}
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var got []Record
	l2, err := Open(path, func(r Record) error { got = append(got, r); return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestLogTornTailRecovery(t *testing.T) {
	path := logPath(t)
	l, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := l.Append(Record{ID: "x", Sample: trajectory.S(float64(i), 0, 0)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the final record: chop a few bytes off the file.
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-5); err != nil {
		t.Fatal(err)
	}

	var got []Record
	l2, err := Open(path, func(r Record) error { got = append(got, r); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 9 {
		t.Errorf("recovered %d records after torn tail, want 9", len(got))
	}
	// The log must accept appends after recovery.
	if err := l2.Append(Record{ID: "x", Sample: trajectory.S(100, 0, 0)}); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	got = nil
	l3, err := Open(path, func(r Record) error { got = append(got, r); return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if len(got) != 10 {
		t.Errorf("after repair+append: %d records, want 10", len(got))
	}
}

func TestLogCorruptMiddleStopsReplay(t *testing.T) {
	path := logPath(t)
	l, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := l.Append(Record{ID: "x", Sample: trajectory.S(float64(i), 0, 0)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the middle of the file.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var got int
	l2, err := Open(path, func(Record) error { got++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got >= 10 {
		t.Errorf("replayed %d records past corruption", got)
	}
}

func TestLogRejectsForeignFile(t *testing.T) {
	path := logPath(t)
	if err := os.WriteFile(path, []byte("definitely not a WAL"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, nil); err == nil {
		t.Error("foreign file accepted")
	}
}

func TestLogRejectsLongID(t *testing.T) {
	l, err := Open(logPath(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	long := make([]byte, 300)
	for i := range long {
		long[i] = 'x'
	}
	if err := l.Append(Record{ID: string(long)}); err == nil {
		t.Error("256+ byte id accepted")
	}
}

func TestOpenRejectsDirectory(t *testing.T) {
	if _, err := Open(t.TempDir(), nil); err == nil {
		t.Error("directory path accepted")
	}
}

func TestOpenPropagatesApplyError(t *testing.T) {
	path := logPath(t)
	l, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = l.Append(Record{ID: "a", Sample: trajectory.S(0, 0, 0)})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	wantErr := func(Record) error { return errSentinel }
	if _, err := Open(path, wantErr); err == nil {
		t.Error("apply error swallowed")
	}
}

var errSentinel = errTest{}

type errTest struct{}

func (errTest) Error() string { return "sentinel" }

func TestDurableStoreRoundTrip(t *testing.T) {
	path := logPath(t)
	opts := store.Options{
		NewCompressor: func() stream.Compressor { return stream.New(compress.OPWTR{Threshold: 40}) },
	}
	d, err := OpenDurable(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	p := gpsgen.New(51, gpsgen.Config{}).Trip(gpsgen.Urban, 1200)
	for _, s := range p {
		if err := d.Append("car", s); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := d.Snapshot("car")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDurable(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	after, ok := d2.Snapshot("car")
	if !ok {
		t.Fatal("object lost across restart")
	}
	// Close sealed the tail, so the recovered snapshot equals the
	// pre-shutdown snapshot exactly.
	if after.Len() != before.Len() {
		t.Fatalf("recovered %d points, want %d", after.Len(), before.Len())
	}
	for i := range before {
		if after[i] != before[i] {
			t.Fatalf("sample %d differs: %v vs %v", i, after[i], before[i])
		}
	}
	// And the recovered trajectory still honours the compressor's bound.
	worst, err := sed.MaxError(p, after)
	if err != nil {
		t.Fatal(err)
	}
	if worst > 40+1e-9 {
		t.Errorf("recovered error %.2f exceeds bound", worst)
	}
}

func TestDurableStoreAppendAfterReopen(t *testing.T) {
	path := logPath(t)
	opts := store.Options{
		NewCompressor: func() stream.Compressor { return stream.New(compress.OPWTR{Threshold: 40}) },
	}
	d, err := OpenDurable(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := d.Append("car", trajectory.S(float64(i*10), float64(i*100), 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDurable(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Continue the stream where it left off.
	for i := 50; i < 100; i++ {
		if err := d2.Append("car", trajectory.S(float64(i*10), float64(i*100), 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}

	d3, err := OpenDurable(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	snap, _ := d3.Snapshot("car")
	if snap.Len() < 2 {
		t.Fatalf("recovered only %d points", snap.Len())
	}
	if got := snap[snap.Len()-1].T; got != 990 {
		t.Errorf("final recovered time %v, want 990", got)
	}
	if err := snap.Validate(); err != nil {
		t.Fatalf("recovered snapshot invalid: %v", err)
	}
}

// The WAL materializes the paper's storage claim: logging the compressed
// stream shrinks the on-disk footprint by roughly the compression rate.
func TestDurableStoreCompressionShrinksLog(t *testing.T) {
	p := gpsgen.New(53, gpsgen.Config{}).Trip(gpsgen.Mixed, 1800)

	run := func(opts store.Options) int64 {
		path := logPath(t)
		d, err := OpenDurable(path, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range p {
			if err := d.Append("car", s); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return info.Size()
	}

	raw := run(store.Options{})
	compressed := run(store.Options{
		NewCompressor: func() stream.Compressor { return stream.New(compress.OPWTR{Threshold: 50}) },
	})
	if compressed >= raw/2 {
		t.Errorf("compressed log %d not well below raw %d", compressed, raw)
	}
}

// TestWALMetrics checks the records counter, fsync latency histogram and
// torn-tail recovery counter against a private registry threaded through
// store.Options.Metrics.
func TestWALMetrics(t *testing.T) {
	path := logPath(t)
	reg := metrics.NewRegistry()
	opts := store.Options{Metrics: reg}
	d, err := OpenDurable(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := d.Append("car", trajectory.S(float64(i), float64(i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	var records, torn float64
	var fsyncs int64
	for _, m := range reg.Snapshot() {
		switch m.Name {
		case "wal_records_total":
			records = m.Value
		case "wal_torn_tail_recoveries_total":
			torn = m.Value
		case "wal_fsync_seconds":
			fsyncs = m.Count
		}
	}
	// 10 live appends; Close seals nothing new in raw mode.
	if records != 10 {
		t.Errorf("wal_records_total = %v, want 10", records)
	}
	if torn != 0 {
		t.Errorf("wal_torn_tail_recoveries_total = %v, want 0", torn)
	}
	if fsyncs < 2 {
		t.Errorf("wal_fsync_seconds count = %d, want >= 2", fsyncs)
	}

	// Corrupt the tail and reopen: the torn-tail recovery counter moves.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x13, 0x37}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDurable(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	for _, m := range reg.Snapshot() {
		if m.Name == "wal_torn_tail_recoveries_total" && m.Value != 1 {
			t.Errorf("after torn reopen: wal_torn_tail_recoveries_total = %v, want 1", m.Value)
		}
	}
	if got := d2.Stats().RetainedPoints; got != 10 {
		t.Errorf("recovered %d points, want 10", got)
	}
}

// TestDurableAppendBatchKeepsNoReferenceToTheBatch is the WAL half of the
// Backend.AppendBatch contract: a caller overwriting its batch after the
// call returns changes neither the live store nor what a reopen replays.
func TestDurableAppendBatchKeepsNoReferenceToTheBatch(t *testing.T) {
	path := logPath(t)
	d, err := OpenDurable(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]trajectory.Sample, 32)
	for i := range batch {
		batch[i] = trajectory.S(float64(i), float64(i*i), float64(i%5))
	}
	want := trajectory.Trajectory(slices.Clone(batch))
	if _, err := d.AppendBatch("a", batch); err != nil {
		t.Fatal(err)
	}
	for i := range batch {
		batch[i] = trajectory.S(-1, 1e9, 1e9)
	}
	if got, _ := d.Snapshot("a"); !slices.Equal(got, want) {
		t.Fatalf("snapshot after the caller overwrote its batch:\n got %v\nwant %v", got, want)
	}
	if st := d.Stats(); st.RawPoints != len(want) || st.PointsPerObject["a"] != len(want) {
		t.Fatalf("stats after the caller overwrote its batch: %+v, want %d points", st, len(want))
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDurable(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got, _ := d2.Snapshot("a"); !slices.Equal(got, want) {
		t.Fatalf("replayed after the caller overwrote its batch:\n got %v\nwant %v", got, want)
	}
}

// Replay and Decode read a record without allocating: one payload buffer is
// reused, and so is the ID string while consecutive records carry the same
// ID. A 10 000-record log of four objects logged in runs of 250 (as MAPPEND
// batches log their samples) costs its fixed set-up allocations plus one ID
// string per run.
func TestReplayAllocatesNothingPerRecord(t *testing.T) {
	const records, run = 10000, 250
	path := logPath(t)
	l, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	var stream []byte
	for i := 0; i < records; i++ {
		rec := Record{ID: []string{"bus-1", "bus-2", "bus-3", "bus-4"}[i/run%4], Sample: trajectory.S(float64(i), float64(i), 0)}
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
		b, err := encode(rec)
		if err != nil {
			t.Fatal(err)
		}
		stream = append(stream, b...)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	n := 0
	count := func(Record) error { n++; return nil }
	replayAllocs := testing.AllocsPerRun(5, func() {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, got, err := replay(f, count); err != nil || got != records {
			t.Fatalf("replay: %d records, %v", got, err)
		}
	})
	recs := 0
	decodeAllocs := testing.AllocsPerRun(5, func() {
		got, _, err := Decode(stream)
		if err != nil {
			t.Fatal(err)
		}
		recs = len(got)
	})
	if recs != records || n == 0 {
		t.Fatalf("decoded %d records, want %d", recs, records)
	}
	// Decode also grows the slice it returns: about log2(records) allocations.
	for name, allocs := range map[string]float64{"replay": replayAllocs, "Decode": decodeAllocs} {
		if per := allocs / records; per >= 0.01 {
			t.Errorf("%s: %.0f allocations for %d records, %.4f per record; want < 0.01", name, allocs, records, per)
		}
	}
}

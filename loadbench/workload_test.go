package main

import (
	"bytes"
	"testing"
)

func schedule(t *testing.T, name string, seed int64) *workload {
	t.Helper()
	ds, err := corpus()
	if err != nil {
		t.Fatal(err)
	}
	w, err := newWorkload(name, seed, 2, ds)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func allOps(w *workload) []op {
	var ops []op
	for _, ph := range w.phases {
		ops = append(ops, ph.ops...)
	}
	return append(ops, w.tailOps...)
}

func TestSameSeedSameSchedule(t *testing.T) {
	for _, name := range workloadNames {
		a, b := allOps(schedule(t, name, 7)), allOps(schedule(t, name, 7))
		if len(a) == 0 || len(a) != len(b) {
			t.Fatalf("%s: %d and %d ops from one seed", name, len(a), len(b))
		}
		for i := range a {
			if !bytes.Equal(a[i].body, b[i].body) || a[i].at != b[i].at || a[i].kind != b[i].kind || a[i].check != b[i].check {
				t.Fatalf("%s op %d differs between two schedules from one seed", name, i)
			}
		}
		c := allOps(schedule(t, name, 8))
		same := len(a) == len(c)
		for i := 0; same && i < len(a); i++ {
			same = bytes.Equal(a[i].body, c[i].body)
		}
		if same {
			t.Errorf("%s: seeds 7 and 8 give identical request bodies", name)
		}
	}
}

func TestScheduleShape(t *testing.T) {
	w := schedule(t, "mixed", 3)
	open := w.phases[1]
	if !open.open || w.phases[0].open {
		t.Fatal("mixed: want a closed phase then an open one")
	}
	inserts, ids := 0, map[int]bool{}
	for i, o := range open.ops {
		if i > 0 && o.at <= open.ops[i-1].at {
			t.Fatalf("open op %d due at %v, not after op %d at %v", i, o.at, i-1, open.ops[i-1].at)
		}
		if o.kind == opInsert {
			inserts++
		}
	}
	if share := float64(inserts) / float64(len(open.ops)); share <= 0 || share > 0.05 {
		t.Errorf("mixed open phase: insert share %.3f, want about %.2f", share, mixedInsertShare)
	}
	for _, o := range allOps(schedule(t, "ingest", 3)) {
		if o.id < w.credit || ids[o.id] {
			t.Fatalf("insert id %d reused or inside the corpus (%d records)", o.id, w.credit)
		}
		ids[o.id] = true
	}
}

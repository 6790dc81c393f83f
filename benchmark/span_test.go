package main

import (
	"testing"
	"time"
)

// TestSelfTimes pins the self-time rule on synthetic trees: a span's self
// time is its duration minus the union of its direct children, clipped to
// its own interval; a span whose parent is missing is a root.
func TestSelfTimes(t *testing.T) {
	tests := []struct {
		name  string
		spans []span
		want  map[int]int64
	}{
		{
			name: "nested",
			spans: []span{
				{ID: 1, Parent: 0, Name: "job", Start: 0, End: 100},
				{ID: 2, Parent: 1, Name: "client.submit", Start: 10, End: 40},
				{ID: 3, Parent: 2, Name: "server.submit", Start: 15, End: 35},
				{ID: 4, Parent: 3, Name: "durable.write", Start: 20, End: 30},
			},
			// Only direct children are subtracted: the grandchild's 10 comes
			// off server.submit, not off job.
			want: map[int]int64{1: 70, 2: 10, 3: 10, 4: 10},
		},
		{
			name: "overlapping children count once",
			spans: []span{
				{ID: 1, Start: 0, End: 100},
				{ID: 2, Parent: 1, Start: 10, End: 50},
				{ID: 3, Parent: 1, Start: 30, End: 70}, // overlaps 2 on [30,50)
				{ID: 4, Parent: 1, Start: 35, End: 45}, // inside both
				{ID: 5, Parent: 1, Start: 80, End: 90}, // disjoint
			},
			want: map[int]int64{1: 100 - (60 + 10), 2: 40, 3: 40, 4: 10, 5: 10},
		},
		{
			name: "child clipped to its parent",
			spans: []span{
				{ID: 1, Start: 10, End: 50},
				{ID: 2, Parent: 1, Start: 0, End: 20},  // starts before the parent
				{ID: 3, Parent: 1, Start: 40, End: 90}, // ends after it
				{ID: 4, Parent: 1, Start: 60, End: 70}, // wholly outside
				{ID: 5, Parent: 1, Start: 25, End: 25}, // an instant
			},
			want: map[int]int64{1: 40 - (10 + 10), 2: 20, 3: 50, 4: 10, 5: 0},
		},
		{
			name: "orphan parent",
			spans: []span{
				{ID: 1, Start: 0, End: 100},
				{ID: 2, Parent: 99, Start: 10, End: 30}, // parent 99 was never recorded
				{ID: 3, Parent: 2, Start: 15, End: 20},
			},
			// The orphan is a root: nothing is taken from span 1 for it, and
			// its own child still counts against it.
			want: map[int]int64{1: 100, 2: 15, 3: 5},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := selfTimes(tc.spans)
			for id, want := range tc.want {
				if got[id] != want {
					t.Errorf("span %d: self time %d, want %d", id, got[id], want)
				}
			}
			if len(got) != len(tc.want) {
				t.Errorf("%d self times for %d spans", len(got), len(tc.want))
			}
		})
	}
}

// TestResolve checks that raw spans keyed three different ways (op index,
// job ID, network seed) land in one trace with the declared causal chain,
// and that spans with an unknown key are dropped.
func TestResolve(t *testing.T) {
	r := newRecorder()
	at := func(ms int) time.Time { return r.epoch.Add(time.Duration(ms) * time.Millisecond) }
	r.add("experiment.run", "seed:42", at(30), at(60)) // recorded out of start order
	r.add("job", "op:7", at(0), at(100))
	r.add("client.submit", "op:7", at(0), at(20))
	r.add("server.submit", "j-000008", at(5), at(15))
	r.add("jobqueue.run", "j-000008", at(25), at(70))
	r.add("server.submit", "j-000001", at(1), at(2)) // a warm-up job: unknown key
	spans := r.resolve(map[string]int{"op:7": 7, "j-000008": 7, "seed:42": 7})

	if len(spans) != 5 {
		t.Fatalf("%d spans resolved, want 5 (the unknown key dropped)", len(spans))
	}
	byName := map[string]span{}
	for i, s := range spans {
		if s.Trace != 7 {
			t.Errorf("%s: trace %d, want 7", s.Name, s.Trace)
		}
		if s.ID != i+1 {
			t.Errorf("%s: ID %d at position %d, want IDs in start order from 1", s.Name, s.ID, i)
		}
		byName[s.Name] = s
	}
	for child, parent := range map[string]string{
		"client.submit": "job", "server.submit": "client.submit",
		"jobqueue.run": "job", "experiment.run": "jobqueue.run",
	} {
		if byName[child].Parent != byName[parent].ID {
			t.Errorf("%s: parent %d, want %s (%d)", child, byName[child].Parent, parent, byName[parent].ID)
		}
	}
	if byName["job"].Parent != 0 {
		t.Errorf("job: parent %d, want 0 (root)", byName["job"].Parent)
	}

	// A direct run has no job above it: experiment.run becomes the root.
	d := newRecorder()
	d.add("experiment.run", "seed:1", d.epoch, d.epoch.Add(time.Millisecond))
	d.add("experiment.loop", "seed:1", d.epoch, d.epoch.Add(time.Millisecond))
	direct := d.resolve(map[string]int{"seed:1": 0})
	if len(direct) != 2 || direct[0].Parent != 0 || direct[1].Parent != direct[0].ID {
		t.Errorf("direct run resolved to %+v, want experiment.run as root with experiment.loop under it", direct)
	}

	var none *recorder
	none.add("job", "op:0", time.Now(), time.Now()) // a nil recorder records nothing, and does not panic
}

package serve

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzJournalReplay feeds arbitrary bytes to the journal replay that runs
// at every startup. Replay must never panic; the good-prefix offset it
// returns (what OpenJournal truncates to) must lie inside the data at a
// line boundary, and replaying exactly that prefix must reconstruct the
// same jobs — otherwise truncating a torn tail would change what a second
// restart sees. Replayed job ids must be non-empty and unique. Seeds live
// in testdata/fuzz/FuzzJournalReplay.
func FuzzJournalReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		jobs, good, err := replay(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("replay of in-memory bytes failed: %v", err)
		}
		if good < 0 || good > int64(len(data)) {
			t.Fatalf("good prefix %d outside data of %d bytes", good, len(data))
		}
		if good > 0 && data[good-1] != '\n' {
			t.Fatalf("good prefix %d does not end at a line boundary", good)
		}
		seen := make(map[string]bool, len(jobs))
		for _, j := range jobs {
			if j.ID == "" || seen[j.ID] {
				t.Fatalf("replayed job id %q empty or duplicated", j.ID)
			}
			seen[j.ID] = true
		}
		again, good2, err := replay(bytes.NewReader(data[:good]))
		if err != nil || good2 != good {
			t.Fatalf("replaying the good prefix: good=%d (want %d), err=%v", good2, good, err)
		}
		if !reflect.DeepEqual(again, jobs) {
			t.Fatalf("replaying the good prefix changed the jobs:\n got %+v\nwant %+v", again, jobs)
		}
	})
}

// FuzzPrepareRequest decodes arbitrary bytes the way POST /v1/sweeps does
// and prepares the result. prepare must never panic. An accepted request
// has one of the three kinds and a non-negative admission charge, and its
// journal round trip — the submit record replay reads back after a
// restart — must prepare to the same kind, experiment and charge. Seeds
// live in testdata/fuzz/FuzzPrepareRequest.
func FuzzPrepareRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return
		}
		p, err := req.prepare()
		if err != nil {
			return
		}
		switch p.kind {
		case "sweep", "experiment", "optimize":
		default:
			t.Fatalf("prepared kind %q", p.kind)
		}
		if p.units < 0 {
			t.Fatalf("admission units %d < 0", p.units)
		}
		var resp dryRunResponse
		p.dryRun(&resp)

		line, err := json.Marshal(journalRecord{T: recSubmit, ID: "job-000001", Req: &req})
		if err != nil {
			t.Fatalf("accepted request does not encode for the journal: %v", err)
		}
		jobs, _, err := replay(bytes.NewReader(append(line, '\n')))
		if err != nil || len(jobs) != 1 {
			t.Fatalf("submit record replays as %d jobs, err=%v", len(jobs), err)
		}
		q, err := jobs[0].Req.prepare()
		if err != nil {
			t.Fatalf("replayed request no longer prepares: %v\nrecord: %s", err, line)
		}
		if q.kind != p.kind || q.experiment != p.experiment || q.units != p.units {
			t.Fatalf("replayed request prepares as (%s, %q, %d), want (%s, %q, %d)\nrecord: %s",
				q.kind, q.experiment, q.units, p.kind, p.experiment, p.units, line)
		}
	})
}

package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"testing"
)

// TestJournalFrameGolden pins frameJournalLine to the bytes the journal
// wrote when it framed records with json.Marshal: the expected lines
// below were produced by that implementation, so a journal written by
// any earlier build and one written now are the same file.
func TestJournalFrameGolden(t *testing.T) {
	golden := []struct {
		rec  Record
		line string
	}{
		{Record{Kind: recServerEpoch, ServerEpoch: 3, At: 0},
			"RJNL1 f8d77f36 {\"kind\":\"server-epoch\",\"at\":0,\"server_epoch\":3}\n"},
		{Record{Kind: recSubmit, ID: "srv-001", ReqID: "r-1", Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS", Tenant: "alpha", BatchRows: 512, At: 12.5},
			"RJNL1 6f9af7d5 {\"kind\":\"submit\",\"id\":\"srv-001\",\"req_id\":\"r-1\",\"stmt\":\"q1 ACC MIN 60% WITHIN 900 SECONDS\",\"tenant\":\"alpha\",\"batch\":512,\"at\":12.5}\n"},
		{Record{Kind: recVerdict, ID: "srv-001", Status: "degraded", At: 12.5},
			"RJNL1 d057ee15 {\"kind\":\"verdict\",\"id\":\"srv-001\",\"status\":\"degraded\",\"at\":12.5}\n"},
		{Record{Kind: recGrant, ID: "srv-001", At: 13},
			"RJNL1 1cb23eb3 {\"kind\":\"grant\",\"id\":\"srv-001\",\"at\":13}\n"},
		{Record{Kind: recEpoch, ID: "srv-001", Epochs: 4, At: 1e-7},
			"RJNL1 3dcc7582 {\"kind\":\"epoch\",\"id\":\"srv-001\",\"epochs\":4,\"at\":1e-7}\n"},
		{Record{Kind: recTerminal, ID: "srv-001", Status: "attained", Epochs: 9, At: 123456789.125},
			"RJNL1 3ed6d44d {\"kind\":\"terminal\",\"id\":\"srv-001\",\"status\":\"attained\",\"epochs\":9,\"at\":123456789.125}\n"},
		{Record{Kind: recClock, At: math.Copysign(0, -1)},
			"RJNL1 318d2281 {\"kind\":\"clock\",\"at\":-0}\n"},
		{Record{Kind: recClock, At: 1e21},
			"RJNL1 8e8af8c1 {\"kind\":\"clock\",\"at\":1e+21}\n"},
		{Record{Kind: recClock, At: 0.1},
			"RJNL1 8e3fdda9 {\"kind\":\"clock\",\"at\":0.1}\n"},
		{Record{Kind: recClock, At: 5e-324},
			"RJNL1 f0156611 {\"kind\":\"clock\",\"at\":5e-324}\n"},
		{Record{Kind: recClock, At: -math.MaxFloat64},
			"RJNL1 d26a97bb {\"kind\":\"clock\",\"at\":-1.7976931348623157e+308}\n"},
		{Record{Kind: recBarrier, ServerEpoch: 2, Heals: 7, At: 99.75},
			"RJNL1 036284e1 {\"kind\":\"recovery-barrier\",\"at\":99.75,\"server_epoch\":2,\"heals\":7}\n"},
		{Record{Kind: recSubmit, ID: "esc\"\\\n\t\r\b\f\x01\x1f<>&", Statement: "caf\u00e9 \u2028\u2029 \xff\xfe \U0001F600 \x7f", Tenant: "t/1", At: 1},
			"RJNL1 bc2edded {\"kind\":\"submit\",\"id\":\"esc\\\"\\\\\\n\\t\\r\\b\\f\\u0001\\u001f\\u003c\\u003e\\u0026\",\"stmt\":\"caf\u00e9 \\u2028\\u2029 \\ufffd\\ufffd \U0001f600 \x7f\",\"tenant\":\"t/1\",\"at\":1}\n"},
		{Record{Kind: recSnapshot, ServerEpoch: 4, At: 77, Jobs: []JobRecord{
			{ID: "a", ReqID: "ra", Statement: "q3 ACC MIN 55% WITHIN 2000 SECONDS", Tenant: "beta", BatchRows: 64, ArrivalAt: 1.5, Status: "pending", BestEffort: true, Epochs: 2},
			{ID: "b"},
		}},
			"RJNL1 32b74d05 {\"kind\":\"snapshot\",\"at\":77,\"server_epoch\":4,\"jobs\":[{\"id\":\"a\",\"req_id\":\"ra\",\"stmt\":\"q3 ACC MIN 55% WITHIN 2000 SECONDS\",\"tenant\":\"beta\",\"batch\":64,\"arrival_at\":1.5,\"status\":\"pending\",\"best_effort\":true,\"epochs\":2},{\"id\":\"b\",\"stmt\":\"\",\"arrival_at\":0,\"status\":\"\"}]}\n"},
		{Record{Kind: recBarrier, BestEffort: true, BatchRows: -3, Epochs: -1, At: -2.5e-9},
			"RJNL1 548a2988 {\"kind\":\"recovery-barrier\",\"batch\":-3,\"best_effort\":true,\"epochs\":-1,\"at\":-2.5e-9}\n"},
	}
	var group []byte
	var want string
	for i, g := range golden {
		line, err := frameJournalLine(g.rec)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if string(line) != g.line {
			t.Errorf("record %d framed as\n%q\nwant\n%q", i, line, g.line)
		}
		// Framing into a shared buffer, as Append does, must not differ.
		if group, err = appendJournalLine(group, &g.rec); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		want += g.line
		// Every golden line replays to the record it was framed from.
		got, err := parseJournalLine(line[:len(line)-1])
		if err != nil {
			t.Fatalf("record %d: parse: %v", i, err)
		}
		var oracle Record
		if err := json.Unmarshal(line[len(journalMagic)+10:len(line)-1], &oracle); err != nil {
			t.Fatalf("record %d: unmarshal: %v", i, err)
		}
		if !reflect.DeepEqual(got, oracle) {
			t.Errorf("record %d parsed as %+v, json.Unmarshal gives %+v", i, got, oracle)
		}
		// Lines without string escapes are canonical: replay must take
		// the fast path for them, not the json.Unmarshal fallback.
		payload := line[len(journalMagic)+10 : len(line)-1]
		if _, ok := canonicalRecord(payload); !ok && !bytes.ContainsRune(payload, '\\') {
			t.Errorf("record %d: canonical decoder refused the encoder's output %s", i, payload)
		}
	}
	if string(group) != want {
		t.Error("group framing differs from the concatenated lines")
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := frameJournalLine(Record{Kind: recClock, At: bad}); err == nil {
			t.Errorf("framing At=%v succeeded; json.Marshal refuses it", bad)
		}
	}
}

// FuzzJournalCodec holds the codec to encoding/json. Encoding: for any
// record the encoder's bytes equal json.Marshal's, or both refuse it.
// Decoding: whenever the canonical decoder accepts a payload — the
// encoder's output or arbitrary bytes — json.Unmarshal accepts it too
// and yields a DeepEqual record, so the fast path never reads a line
// differently from the fallback it bypasses.
func FuzzJournalCodec(f *testing.F) {
	f.Add("submit", "srv-001", "r-1", "q1 ACC MIN 60% WITHIN 900 SECONDS", "alpha", "admitted", 512, 3, 2, 12.5, true, uint8(2), []byte(`{"kind":"clock","at":1}`))
	f.Add("snapshot", "<a&b>", "", "caf\u00e9 \u2028\u2029", "", "", 0, 0, 0, math.Copysign(0, -1), false, uint8(3), []byte(`{"kind":"clock","at":01}`))
	f.Add("", "\xff\xfe", "\x00\x1f", "\"\\/", "\t", "\U0001F600", -1, -9, 1<<62, 5e-324, false, uint8(0), []byte(`{"kind":"epoch","epochs":1.0,"at":1}`))
	f.Add("clock", "", "", "", "", "", 0, 0, 0, 1e21, false, uint8(1), []byte(`{"kind":"epoch","epochs":99999999999999999999,"at":1}`))
	f.Add("clock", "", "", "", "", "", 0, 0, 0, 1e-7, false, uint8(0), []byte(`{"kind":"clock","kind":"grant","at":1}`))
	f.Add("clock", "", "", "", "", "", 0, 0, 0, math.NaN(), false, uint8(0), []byte(`{"at":1,"kind":"clock"}`))
	f.Add("clock", "", "", "", "", "", 0, 0, 0, math.Inf(-1), false, uint8(0), []byte(`{"kind": "clock","at":1}`))
	f.Add("grant", "x", "", "", "", "", 0, 0, 0, 1.7976931348623157e308, false, uint8(0), []byte(`{"kind":"snapshot","at":1,"jobs":[]}`))
	f.Add("grant", "x", "", "", "", "", 0, 0, 0, 123456789.125, false, uint8(0), []byte(`{"kind":"snapshot","at":1,"jobs":[{"id":"a","stmt":"s","arrival_at":1e400,"status":"x"}]}`))
	f.Add("grant", "x", "", "", "", "", 0, 0, 0, 0.1, false, uint8(0), []byte(`{"kind":"verdict","best_effort":false,"at":-0,"heals":-0}`))
	f.Fuzz(func(t *testing.T, kind, id, reqID, stmt, tenant, status string, batch, epochs, serverEpoch int, at float64, best bool, nJobs uint8, payload []byte) {
		rec := Record{Kind: kind, ID: id, ReqID: reqID, Statement: stmt, Tenant: tenant,
			BatchRows: batch, Status: status, BestEffort: best, Epochs: epochs, At: at,
			ServerEpoch: serverEpoch, Heals: epochs - batch}
		for i := 0; i < int(nJobs%4); i++ {
			rec.Jobs = append(rec.Jobs, JobRecord{ID: id + strconv.Itoa(i), ReqID: reqID, Statement: stmt,
				Tenant: tenant, BatchRows: batch * i, ArrivalAt: at / float64(i+1), Status: status,
				BestEffort: best == (i%2 == 0), Epochs: epochs + i})
		}
		got, gotErr := appendRecordJSON([]byte("prefix"), &rec)
		want, wantErr := json.Marshal(rec)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("encoder error %v, json.Marshal error %v", gotErr, wantErr)
		}
		if wantErr == nil {
			if !bytes.Equal(got[len("prefix"):], want) {
				t.Fatalf("encoder wrote\n%s\njson.Marshal wrote\n%s", got[len("prefix"):], want)
			}
			checkCanonicalDecode(t, want)
		}
		checkCanonicalDecode(t, payload)
	})
}

// checkCanonicalDecode asserts the canonical decoder only accepts what
// json.Unmarshal reads identically.
func checkCanonicalDecode(t *testing.T, payload []byte) {
	t.Helper()
	got, ok := canonicalRecord(payload)
	if !ok {
		return
	}
	var oracle Record
	if err := json.Unmarshal(payload, &oracle); err != nil {
		t.Fatalf("canonical decoder accepted %q, json.Unmarshal refuses it: %v", payload, err)
	}
	if !reflect.DeepEqual(got, oracle) {
		t.Fatalf("canonical decoder read %q as\n%+v\njson.Unmarshal reads\n%+v", payload, got, oracle)
	}
}

// Journal record codec: a reflection-free encoder and decoder for the
// RJNL1 payload, so framing and replay do not pay encoding/json's
// per-field reflection on the durability path.
//
// The encoder appends exactly the bytes json.Marshal(Record) emits —
// struct field order, omitempty, HTML-safe string escaping, invalid
// UTF-8 as the \ufffd escape, U+2028/U+2029 escaped, encoding/json's float
// formatting, and an error on NaN/±Inf — so the on-disk format is the
// one every earlier build wrote and reads. FuzzJournalCodec holds it to
// json.Marshal byte for byte.
//
// The decoder accepts only the canonical form that encoder writes:
// known keys in struct order, no whitespace, strings without escapes.
// Anything else — escaped strings, reordered, duplicate or unknown keys
// (records from a future version), whitespace from a hand edit, numbers
// the target field cannot hold — is handed to json.Unmarshal, which
// stays the only reader of non-canonical lines and the decoder's test
// oracle: whenever the canonical decoder accepts a payload, json.Unmarshal
// accepts it too and yields a reflect.DeepEqual record.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"strconv"
	"unicode/utf8"
)

// appendJournalLine appends rec as one framed journal line
// (RJNL1 <crc32-hex8> <payload>\n) to dst. On error dst is returned
// unchanged in length.
func appendJournalLine(dst []byte, rec *Record) ([]byte, error) {
	start := len(dst)
	dst = append(dst, journalMagic+" 00000000 "...)
	body := len(dst)
	dst, err := appendRecordJSON(dst, rec)
	if err != nil {
		return dst[:start], fmt.Errorf("serve: marshal journal record: %w", err)
	}
	crc := crc32.ChecksumIEEE(dst[body:])
	hexDigits := dst[start+len(journalMagic)+1 : body-1]
	for i := len(hexDigits) - 1; i >= 0; i-- {
		hexDigits[i] = hexChars[crc&0xf]
		crc >>= 4
	}
	return append(dst, '\n'), nil
}

const hexChars = "0123456789abcdef"

// frameSizeHint estimates rec's framed size from its strings plus a
// per-record allowance for keys and numbers, so a group or snapshot
// buffer is allocated once instead of grown by repeated doubling.
func frameSizeHint(rec *Record) int {
	n := 128 + len(rec.Kind) + len(rec.ID) + len(rec.ReqID) + len(rec.Statement) + len(rec.Tenant) + len(rec.Status)
	for i := range rec.Jobs {
		j := &rec.Jobs[i]
		n += 112 + len(j.ID) + len(j.ReqID) + len(j.Statement) + len(j.Tenant) + len(j.Status)
	}
	return n
}

// appendRecordJSON appends json.Marshal(rec)'s bytes to dst.
func appendRecordJSON(dst []byte, rec *Record) ([]byte, error) {
	dst = append(dst, `{"kind":`...)
	dst = appendJSONString(dst, rec.Kind)
	if rec.ID != "" {
		dst = appendJSONString(append(dst, `,"id":`...), rec.ID)
	}
	if rec.ReqID != "" {
		dst = appendJSONString(append(dst, `,"req_id":`...), rec.ReqID)
	}
	if rec.Statement != "" {
		dst = appendJSONString(append(dst, `,"stmt":`...), rec.Statement)
	}
	if rec.Tenant != "" {
		dst = appendJSONString(append(dst, `,"tenant":`...), rec.Tenant)
	}
	if rec.BatchRows != 0 {
		dst = strconv.AppendInt(append(dst, `,"batch":`...), int64(rec.BatchRows), 10)
	}
	if rec.Status != "" {
		dst = appendJSONString(append(dst, `,"status":`...), rec.Status)
	}
	if rec.BestEffort {
		dst = append(dst, `,"best_effort":true`...)
	}
	if rec.Epochs != 0 {
		dst = strconv.AppendInt(append(dst, `,"epochs":`...), int64(rec.Epochs), 10)
	}
	dst, err := appendJSONFloat(append(dst, `,"at":`...), rec.At)
	if err != nil {
		return dst, err
	}
	if rec.ServerEpoch != 0 {
		dst = strconv.AppendInt(append(dst, `,"server_epoch":`...), int64(rec.ServerEpoch), 10)
	}
	if rec.Heals != 0 {
		dst = strconv.AppendInt(append(dst, `,"heals":`...), int64(rec.Heals), 10)
	}
	if len(rec.Jobs) > 0 {
		dst = append(dst, `,"jobs":[`...)
		for i := range rec.Jobs {
			if i > 0 {
				dst = append(dst, ',')
			}
			if dst, err = appendJobJSON(dst, &rec.Jobs[i]); err != nil {
				return dst, err
			}
		}
		dst = append(dst, ']')
	}
	return append(dst, '}'), nil
}

// appendJobJSON appends json.Marshal(j)'s bytes to dst.
func appendJobJSON(dst []byte, j *JobRecord) ([]byte, error) {
	dst = appendJSONString(append(dst, `{"id":`...), j.ID)
	if j.ReqID != "" {
		dst = appendJSONString(append(dst, `,"req_id":`...), j.ReqID)
	}
	dst = appendJSONString(append(dst, `,"stmt":`...), j.Statement)
	if j.Tenant != "" {
		dst = appendJSONString(append(dst, `,"tenant":`...), j.Tenant)
	}
	if j.BatchRows != 0 {
		dst = strconv.AppendInt(append(dst, `,"batch":`...), int64(j.BatchRows), 10)
	}
	dst, err := appendJSONFloat(append(dst, `,"arrival_at":`...), j.ArrivalAt)
	if err != nil {
		return dst, err
	}
	dst = appendJSONString(append(dst, `,"status":`...), j.Status)
	if j.BestEffort {
		dst = append(dst, `,"best_effort":true`...)
	}
	if j.Epochs != 0 {
		dst = strconv.AppendInt(append(dst, `,"epochs":`...), int64(j.Epochs), 10)
	}
	return append(dst, '}'), nil
}

// appendJSONString appends s as encoding/json quotes it with HTML
// escaping on (json.Marshal's default).
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexChars[b>>4], hexChars[b&0xf])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexChars[c&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendJSONFloat appends f as encoding/json formats a float64: the
// shortest round-trip decimal, in exponent form only below 1e-6 or from
// 1e21 up, with a single-digit negative exponent unpadded. NaN and ±Inf
// have no JSON form and are an error, as in json.Marshal.
func appendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9, as encoding/json does.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// canonicalRecord decodes payload through the fast path alone, reporting
// ok=false for anything outside the canonical form.
func canonicalRecord(payload []byte) (Record, bool) {
	c := cursor{b: payload}
	return c.record()
}

// decodeRecord parses one payload, through the canonical fast path when
// it applies and json.Unmarshal otherwise.
func decodeRecord(payload []byte) (Record, error) {
	if rec, ok := canonicalRecord(payload); ok {
		return rec, nil
	}
	var rec Record
	err := json.Unmarshal(payload, &rec)
	return rec, err
}

// cursor walks one canonical payload. Every method reports ok=false on
// the first byte outside the canonical grammar.
type cursor struct {
	b []byte
	i int
}

// lit consumes the literal s (a key with its punctuation, or a
// delimiter or keyword) if it is next.
func (c *cursor) lit(s string) bool {
	if len(c.b)-c.i < len(s) || string(c.b[c.i:c.i+len(s)]) != s {
		return false
	}
	c.i += len(s)
	return true
}

// record reads one Record. Each optional field reads as "key absent, or
// key present and its value parses"; the field list mirrors
// appendRecordJSON.
func (c *cursor) record() (rec Record, ok bool) {
	ok = c.lit(`{"kind":`) && c.str(&rec.Kind) &&
		(!c.lit(`,"id":`) || c.str(&rec.ID)) &&
		(!c.lit(`,"req_id":`) || c.str(&rec.ReqID)) &&
		(!c.lit(`,"stmt":`) || c.str(&rec.Statement)) &&
		(!c.lit(`,"tenant":`) || c.str(&rec.Tenant)) &&
		(!c.lit(`,"batch":`) || c.int(&rec.BatchRows)) &&
		(!c.lit(`,"status":`) || c.str(&rec.Status)) &&
		(!c.lit(`,"best_effort":`) || c.bool(&rec.BestEffort)) &&
		(!c.lit(`,"epochs":`) || c.int(&rec.Epochs)) &&
		c.lit(`,"at":`) && c.float(&rec.At) &&
		(!c.lit(`,"server_epoch":`) || c.int(&rec.ServerEpoch)) &&
		(!c.lit(`,"heals":`) || c.int(&rec.Heals)) &&
		(!c.lit(`,"jobs":[`) || c.jobs(&rec.Jobs)) &&
		c.lit("}") && c.i == len(c.b)
	return rec, ok
}

// jobs reads a job array's elements and its closing bracket. The slice is
// sized by a count of job openings: an over-count at worst, since a
// string holding one is escaped and leaves the fast path. "[]" reads as
// an empty, non-nil slice, as in json.Unmarshal.
func (c *cursor) jobs(dst *[]JobRecord) bool {
	jobs := make([]JobRecord, 0, bytes.Count(c.b[c.i:], []byte(`{"id":`)))
	for !c.lit("]") {
		if len(jobs) > 0 && !c.lit(",") {
			return false
		}
		jobs = append(jobs, JobRecord{})
		if !c.job(&jobs[len(jobs)-1]) {
			return false
		}
	}
	*dst = jobs
	return true
}

// job reads one JobRecord; the field list mirrors appendJobJSON.
func (c *cursor) job(j *JobRecord) bool {
	return c.lit(`{"id":`) && c.str(&j.ID) &&
		(!c.lit(`,"req_id":`) || c.str(&j.ReqID)) &&
		c.lit(`,"stmt":`) && c.str(&j.Statement) &&
		(!c.lit(`,"tenant":`) || c.str(&j.Tenant)) &&
		(!c.lit(`,"batch":`) || c.int(&j.BatchRows)) &&
		c.lit(`,"arrival_at":`) && c.float(&j.ArrivalAt) &&
		c.lit(`,"status":`) && c.str(&j.Status) &&
		(!c.lit(`,"best_effort":`) || c.bool(&j.BestEffort)) &&
		(!c.lit(`,"epochs":`) || c.int(&j.Epochs)) &&
		c.lit("}")
}

// str reads a string with no escapes, no control bytes and valid UTF-8
// (json.Unmarshal would rewrite anything else) into dst.
func (c *cursor) str(dst *string) bool {
	if c.i >= len(c.b) || c.b[c.i] != '"' {
		return false
	}
	start := c.i + 1
	ascii := true
	for i := start; i < len(c.b); i++ {
		switch b := c.b[i]; {
		case b == '"':
			s := c.b[start:i]
			if !ascii && !utf8.Valid(s) {
				return false
			}
			c.i = i + 1
			*dst = string(s)
			return true
		case b < 0x20 || b == '\\':
			return false
		case b >= utf8.RuneSelf:
			ascii = false
		}
	}
	return false
}

// digits returns the length of the run of decimal digits at b[i:].
func digits(b []byte, i int) int {
	n := 0
	for i+n < len(b) && b[i+n] >= '0' && b[i+n] <= '9' {
		n++
	}
	return n
}

// int reads a JSON integer of at most 18 digits (so it cannot overflow);
// longer numbers, fractions and exponents fall back to json.Unmarshal.
func (c *cursor) int(dst *int) bool {
	i := c.i
	neg := i < len(c.b) && c.b[i] == '-'
	if neg {
		i++
	}
	n := digits(c.b, i)
	if n == 0 || n > 18 || (n > 1 && c.b[i] == '0') {
		return false
	}
	v := 0
	for _, b := range c.b[i : i+n] {
		v = v*10 + int(b-'0')
	}
	if neg {
		v = -v
	}
	*dst = v
	c.i = i + n
	return true
}

// float reads a number in JSON's grammar and converts it as
// json.Unmarshal does (strconv.ParseFloat); out-of-range values fall
// back, where json.Unmarshal reports them.
func (c *cursor) float(dst *float64) bool {
	i := c.i
	if i < len(c.b) && c.b[i] == '-' {
		i++
	}
	n := digits(c.b, i)
	if n == 0 || (n > 1 && c.b[i] == '0') {
		return false
	}
	i += n
	if i < len(c.b) && c.b[i] == '.' {
		n = digits(c.b, i+1)
		if n == 0 {
			return false
		}
		i += 1 + n
	}
	if i < len(c.b) && (c.b[i] == 'e' || c.b[i] == 'E') {
		i++
		if i < len(c.b) && (c.b[i] == '+' || c.b[i] == '-') {
			i++
		}
		n = digits(c.b, i)
		if n == 0 {
			return false
		}
		i += n
	}
	f, err := strconv.ParseFloat(string(c.b[c.i:i]), 64)
	if err != nil {
		return false
	}
	*dst = f
	c.i = i
	return true
}

func (c *cursor) bool(dst *bool) bool {
	switch {
	case c.lit("true"):
		*dst = true
	case c.lit("false"):
		*dst = false
	default:
		return false
	}
	return true
}

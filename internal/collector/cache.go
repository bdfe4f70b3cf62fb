package collector

// The incremental method cache stores one MethodRecord per entry — the
// method's canonicalized collection trees plus the shape metadata the
// reassembler needs — serialized as JSON in the same shape files.go uses
// for the on-disk collection files. Encode/Decode are the (de)serialization
// boundary; SpliceRecord grafts a decoded record into a partial Result in
// place of the execution that was skipped.

import (
	"encoding/json"
	"fmt"
)

// EncodeRecord serializes a method record for the method cache. Tree order
// is preserved exactly: on the plain path execution order is the canonical
// order, on the force path the record is canonicalized (fingerprint-sorted)
// before encoding, so in both cases a later splice reproduces the bytes the
// full path would have produced.
func EncodeRecord(rec *MethodRecord) ([]byte, error) {
	data, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("collector: encode method record: %w", err)
	}
	return data, nil
}

// DecodeRecord deserializes a cached method record, rebuilding the
// collection-time state JSON does not carry (see adoptTrees). Records
// encoded before the IIM left the format still carry an "iim" object;
// it is ignored, since the IL determines the index.
func DecodeRecord(data []byte) (*MethodRecord, error) {
	rec := &MethodRecord{}
	if err := json.Unmarshal(data, rec); err != nil {
		return nil, fmt.Errorf("collector: decode method record: %w", err)
	}
	if err := rec.adoptTrees(); err != nil {
		return nil, err
	}
	return rec, nil
}

// adoptTrees rebuilds what decoded trees do not serialize — parent links
// and the IIM — and computes each tree's fingerprint once, caching it on
// the tree and seeding the record's dedup index with it.
func (rec *MethodRecord) adoptTrees() error {
	rec.seen = make(map[string]*TreeNode, len(rec.Trees))
	for _, tr := range rec.Trees {
		if err := reindex(tr, nil); err != nil {
			return err
		}
		tr.fp = string(tr.fingerprint(nil))
		rec.seen[tr.fp] = tr
	}
	return nil
}

// SpliceRecord grafts a cached record into r under its method key,
// reporting how many trees were adopted. On the incremental path skipped
// methods collect nothing, so the key is normally absent and the record is
// adopted wholesale; if a record already exists (defensive: a merge created
// a shell for it), the cached trees and metadata are unioned into it with
// the same dedup rules as Merge.
func (r *Result) SpliceRecord(rec *MethodRecord) int {
	if rec == nil {
		return 0
	}
	if _, ok := r.Methods[rec.Key()]; !ok {
		r.Methods[rec.Key()] = rec
		return len(rec.Trees)
	}
	st := r.Merge(&Result{Methods: map[string]*MethodRecord{rec.Key(): rec}})
	return st.TreesKept
}

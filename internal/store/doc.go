// Package store is the campaign layer's persistence abstraction: a
// small ordered key-value interface (get / put / scan / batch) with two
// backends behind it, following the module's noop/real adapter split.
//
// Mem keeps everything in a map and exists so tests, experiments and
// one-shot runs pay no I/O. Disk is the production shape for
// longitudinal scans: an append-only log of segmented JSONL files plus
// an in-memory index rebuilt on open, with explicit fsync'd sync points
// so the campaign engine can order "results are durable" before "the
// shard checkpoint says so". Updates are last-write-wins appends, so a
// crash can at worst tear the final record of the active segment,
// which Open detects and truncates away.
//
// Disk compacts once superseded records outweigh live ones: at Close,
// and at Sync once the superseded bytes also pass a 1 MiB floor. It
// copies the live records in key order into a temporary file, fsyncs
// it, renames it to a segment numbered above every existing one (split
// at SegmentBytes like any segment), fsyncs the directory, and only
// then deletes the old segments. No segment is ever modified, so a
// crash at any step leaves a directory that replays to the same
// contents: an unrenamed temp file is deleted on Open, and a renamed
// output holds the current value of each of its keys and replays after
// the old segments, so it wins whether or not they are gone yet.
//
// Scan visits keys in ascending lexicographic order in both backends —
// the property the campaign layer builds byte-identical snapshot
// exports and merge-join diffs on. docs/CAMPAIGN.md specifies the
// on-disk format and its recovery semantics; the property test in
// equiv_test.go pins the two backends to observational equivalence
// under random operation sequences.
package store

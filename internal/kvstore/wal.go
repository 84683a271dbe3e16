package kvstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
)

// Write-ahead log: the commit protocol that makes Sync atomic.
//
// Every file-backed store keeps a sidecar log at <path>.wal. A flush
// batch splits its dirty pages at the durable page count, the count of
// the last commit that may have reached stable storage:
//
//   - A fresh page, at or past that count, was allocated by the batch
//     itself and never held committed data, so a torn write of it
//     cannot damage the store. Fresh pages are written in place first,
//     one write per run of consecutive page ids, and the store file is
//     fsynced. Every page a commit allocates is fresh, so a shred writes
//     most of its pages exactly once.
//   - Every other page overwrites durable data: the header, internal
//     pages, a leaf that gained entries. Their images go to the log,
//     each protected by a CRC, followed by a commit record naming the
//     batch size and the committed file length, and the log is fsynced.
//     Only then are they written in place in the store file and fsynced,
//     after which the log is truncated and fsynced.
//
// A batch with no fresh pages skips the first step. A file with no
// durable header yet counts every page as logged, so its header never
// reaches the file before its commit record is durable; Open makes that
// commit the empty tree's two pages when it creates the file, so a
// crash there leaves an empty file or a log that replays the empty
// tree: either way the store reopens empty.
// There is no free list: once one exists, a reused page id
// lies below the durable count and so goes through the log by this
// rule.
//
// Open replays the log before reading anything: a log whose commit
// record (and every page record it covers) checks out is re-applied to
// the store file — the in-place phase may have been interrupted
// anywhere, including mid-page — while a log that ends early or fails a
// checksum is discarded, because the logged pages are untouched until
// the commit record is durable. Open then cuts the file back to the page
// count its header names (cutToHeader): pages past it, torn or whole,
// belong to a commit whose record never became durable. Either way the
// store reopens to exactly the last committed state.
//
// Layout (integers big-endian, CRC-32C):
//
//	header: "XMWAL1\x00\x00"
//	'P' pageID:u32 crc:u32 data:[PageSize]   crc over pageID+data
//	'C' count:u32 npages:u32 crc:u32         crc over count+npages
//
// The log normally holds one batch (it is truncated after every
// successful Sync), but replay accepts any number of complete batches in
// order — a truncate that failed mid-crash leaves the previous batch in
// front of the next.

const walMagic = "XMWAL1\x00\x00"

const (
	walPageRec   = 'P'
	walCommitRec = 'C'

	walPageRecSize   = 9 + PageSize
	walCommitRecSize = 13
)

var walTable = crc32.MakeTable(crc32.Castagnoli)

// walSuffix turns a store path into its log path.
func walSuffix(path string) string { return path + ".wal" }

// walEncodePage encodes the page record for page id holding data
// (PageSize bytes) into rec (walPageRecSize bytes) and returns rec.
func walEncodePage(rec []byte, id uint32, data []byte) []byte {
	rec[0] = walPageRec
	binary.BigEndian.PutUint32(rec[1:], id)
	copy(rec[9:], data)
	crc := crc32.Update(0, walTable, rec[1:5])
	crc = crc32.Update(crc, walTable, rec[9:])
	binary.BigEndian.PutUint32(rec[5:], crc)
	return rec
}

// walEncodeCommit builds the commit record for a batch of count pages
// committing a store file of npages pages.
func walEncodeCommit(count, npages uint32) []byte {
	rec := make([]byte, walCommitRecSize)
	rec[0] = walCommitRec
	binary.BigEndian.PutUint32(rec[1:], count)
	binary.BigEndian.PutUint32(rec[5:], npages)
	binary.BigEndian.PutUint32(rec[9:], crc32.Checksum(rec[1:9], walTable))
	return rec
}

// walPage is one replayable page image (data aliases the parsed buffer).
type walPage struct {
	id   uint32
	data []byte
}

// walBatch is one complete, checksum-valid commit.
type walBatch struct {
	npages uint32
	pages  []walPage
}

// parseWAL decodes the complete batches at the front of data, stopping
// at the first malformed, checksum-failing, or incomplete record — the
// crash tail. basePages is the store file's current page count; it
// bounds each batch's committed length (a commit's fresh pages are in
// the file before its log is written, and a first commit logs every
// page, so a batch grows the file by at most its own records), so a
// corrupt length cannot balloon replay. Everything after the last
// complete batch is discarded by the caller.
func parseWAL(data []byte, basePages int64) []walBatch {
	if len(data) < len(walMagic) || string(data[:len(walMagic)]) != walMagic {
		return nil
	}
	off := len(walMagic)
	maxPages := basePages
	var batches []walBatch
	var pending []walPage
	for off < len(data) {
		switch data[off] {
		case walPageRec:
			if off+walPageRecSize > len(data) {
				return batches
			}
			rec := data[off : off+walPageRecSize]
			id := binary.BigEndian.Uint32(rec[1:])
			crc := crc32.Update(0, walTable, rec[1:5])
			crc = crc32.Update(crc, walTable, rec[9:])
			if crc != binary.BigEndian.Uint32(rec[5:]) {
				return batches
			}
			pending = append(pending, walPage{id: id, data: rec[9:]})
			off += walPageRecSize
		case walCommitRec:
			if off+walCommitRecSize > len(data) {
				return batches
			}
			rec := data[off : off+walCommitRecSize]
			if crc32.Checksum(rec[1:9], walTable) != binary.BigEndian.Uint32(rec[9:]) {
				return batches
			}
			count := binary.BigEndian.Uint32(rec[1:])
			npages := binary.BigEndian.Uint32(rec[5:])
			if int(count) != len(pending) || int64(npages) > maxPages+int64(count) {
				return batches
			}
			for _, pg := range pending {
				if pg.id >= npages {
					return batches
				}
			}
			batches = append(batches, walBatch{npages: npages, pages: pending})
			pending = nil
			maxPages = int64(npages)
			off += walCommitRecSize
		default:
			return batches
		}
	}
	return batches
}

// recoverWAL replays the store's log into the open store file, if one is
// present: complete batches are re-applied (idempotently — the in-place
// phase writes the same bytes) and the file is truncated to each batch's
// committed length; an incomplete tail is discarded. The log is emptied
// afterwards in both cases. It returns whether any batch was replayed.
// Open runs it before reading anything, so a store crashed mid-commit
// reopens to its last committed state.
func recoverWAL(fs VFS, path string, db File) (bool, error) {
	w, err := fs.OpenFile(walSuffix(path), os.O_RDWR, 0o644)
	if err != nil {
		if os.IsNotExist(err) {
			return false, nil
		}
		return false, fmt.Errorf("kvstore: open wal: %w", err)
	}
	defer w.Close()
	sz, err := w.Size()
	if err != nil {
		return false, fmt.Errorf("kvstore: wal size: %w", err)
	}
	if sz == 0 {
		return false, nil
	}
	data := make([]byte, sz)
	if _, err := w.ReadAt(data, 0); err != nil {
		return false, fmt.Errorf("kvstore: read wal: %w", err)
	}
	dbSize, err := db.Size()
	if err != nil {
		return false, err
	}
	batches := parseWAL(data, dbSize/PageSize)
	for _, b := range batches {
		for _, pg := range b.pages {
			if _, err := db.WriteAt(pg.data, int64(pg.id)*PageSize); err != nil {
				return false, fmt.Errorf("kvstore: replay page %d: %w", pg.id, err)
			}
		}
		if err := db.Truncate(int64(b.npages) * PageSize); err != nil {
			return false, fmt.Errorf("kvstore: replay truncate: %w", err)
		}
	}
	if len(batches) > 0 {
		if err := db.Sync(); err != nil {
			return false, fmt.Errorf("kvstore: replay sync: %w", err)
		}
	}
	if err := w.Truncate(0); err != nil {
		return false, fmt.Errorf("kvstore: reset wal: %w", err)
	}
	if err := w.Sync(); err != nil {
		return false, fmt.Errorf("kvstore: reset wal: %w", err)
	}
	return len(batches) > 0, nil
}

// cutToHeader cuts the store file back to the page count its header
// names, after replay: the pages past it were written in place by a
// commit whose record never became durable, and the last of them may be
// torn, leaving a size that is not a whole number of pages. A header
// that is missing or implausible (bad magic, root 0 or not below the
// count, fewer than two pages) cuts nothing, and Open rejects the file
// as it is.
func cutToHeader(db File) error {
	size, err := db.Size()
	if err != nil {
		return err
	}
	if size < PageSize {
		return nil
	}
	hdr := make([]byte, 16)
	if _, err := db.ReadAt(hdr, 0); err != nil {
		return fmt.Errorf("kvstore: read header: %w", err)
	}
	root := binary.BigEndian.Uint32(hdr[8:])
	npages := binary.BigEndian.Uint32(hdr[12:])
	keep := int64(npages) * PageSize
	if string(hdr[:8]) != magic || root == 0 || root >= npages || npages < 2 || size <= keep {
		return nil
	}
	if err := db.Truncate(keep); err != nil {
		return fmt.Errorf("kvstore: cut uncommitted pages: %w", err)
	}
	if err := db.Sync(); err != nil {
		return fmt.Errorf("kvstore: cut uncommitted pages: %w", err)
	}
	return nil
}

// walCommit makes a flush batch's logged pages durable in the log:
// header, one page record each, commit record, fsync. Called by the
// group-commit leader after the batch's fresh pages are on stable
// storage and before any other in-place write; the log was left empty
// by the previous commit (or recovery), so the batch starts at offset
// 0. The page images and the committed page count were captured
// together under the DB's publishMu, so the batch is a consistent cut:
// a transaction's pages are either all in the batch or all left for the
// next one, and npages never exceeds what replay's growth bound allows.
// The single fsync here is the durability point the whole group of
// committers shares (WALFsyncs counts exactly these).
func (p *pager) walCommit(batch []flushPage, npages uint32) error {
	if p.wal == nil {
		w, err := p.fs.OpenFile(p.walPath, os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			return fmt.Errorf("kvstore: open wal: %w", err)
		}
		p.wal = w
	}
	off := int64(0)
	put := func(rec []byte) error {
		if _, err := p.wal.WriteAt(rec, off); err != nil {
			return fmt.Errorf("kvstore: wal write: %w", err)
		}
		off += int64(len(rec))
		p.walBytes.Add(int64(len(rec)))
		return nil
	}
	if err := put([]byte(walMagic)); err != nil {
		return err
	}
	// Every page record is encoded into one buffer the pager keeps: the
	// log is written one record per WriteAt, so each is done with before
	// the next is encoded.
	if p.walRec == nil {
		p.walRec = make([]byte, walPageRecSize)
	}
	for _, fp := range batch {
		if err := put(walEncodePage(p.walRec, fp.id, fp.buf)); err != nil {
			return err
		}
	}
	if err := put(walEncodeCommit(uint32(len(batch)), npages)); err != nil {
		return err
	}
	if err := fsyncTimed(p.wal, walFsyncTime); err != nil {
		return fmt.Errorf("kvstore: wal sync: %w", err)
	}
	p.walFsyncs.Add(1)
	return nil
}

// walReset empties the log after a successful in-place phase, completing
// the commit.
func (p *pager) walReset() error {
	if err := p.wal.Truncate(0); err != nil {
		return fmt.Errorf("kvstore: truncate wal: %w", err)
	}
	if err := fsyncTimed(p.wal, walFsyncTime); err != nil {
		return fmt.Errorf("kvstore: truncate wal: %w", err)
	}
	p.walCommits.Add(1)
	return nil
}

package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// sealMagic identifies a segment's footer line. A record line never
// starts with this key, so the footer is unambiguous.
const sealMagic = 1

// sealFooter is the final line of a sealed segment. CRC32 (IEEE)
// covers the first Bytes bytes of the file — every record line
// including its newline, and nothing of the footer itself.
type sealFooter struct {
	Seal    int    `json:"busprobeSeal"`
	Records int    `json:"records"`
	Bytes   int64  `json:"bytes"`
	CRC32   uint32 `json:"crc32"`
}

// encode renders the footer as its on-disk line (sans newline).
func (sf sealFooter) encode() []byte {
	b, err := json.Marshal(sf)
	if err != nil {
		// A struct of ints cannot fail to marshal.
		panic(fmt.Sprintf("store: encode seal footer: %v", err))
	}
	return b
}

// parseFooter reports whether line is a seal footer.
func parseFooter(line []byte) (sealFooter, bool) {
	if !bytes.Contains(line, []byte(`"busprobeSeal"`)) {
		return sealFooter{}, false
	}
	var sf sealFooter
	if err := json.Unmarshal(line, &sf); err != nil || sf.Seal != sealMagic {
		return sealFooter{}, false
	}
	return sf, true
}

// lineWriter buffers line appends to a file.
type lineWriter struct {
	bw *bufio.Writer
}

func newLineWriter(w io.Writer) *lineWriter {
	return &lineWriter{bw: bufio.NewWriter(w)}
}

// writeLine appends one record plus newline and flushes, reporting the
// bytes written. A short write surfaces as an error.
func (lw *lineWriter) writeLine(rec []byte) (int, error) {
	if _, err := lw.bw.Write(rec); err != nil {
		return 0, err
	}
	if err := lw.bw.WriteByte('\n'); err != nil {
		return 0, err
	}
	if err := lw.bw.Flush(); err != nil {
		return 0, err
	}
	return len(rec) + 1, nil
}

func (lw *lineWriter) Flush() error { return lw.bw.Flush() }

// segFile is one segment file found in a store directory.
type segFile struct {
	seq  uint64
	path string
}

// snapFile is one snapshot file found in a store directory.
type snapFile struct {
	upTo uint64
	path string
}

// dirListing is a store directory's contents, each class ascending.
type dirListing struct {
	sealed []segFile
	active *segFile
	snaps  []snapFile
}

func (ls dirListing) maxSealed() uint64 {
	if len(ls.sealed) == 0 {
		return 0
	}
	return ls.sealed[len(ls.sealed)-1].seq
}

func (ls dirListing) maxSeq() uint64 {
	m := ls.maxSealed()
	if ls.active != nil && ls.active.seq > m {
		m = ls.active.seq
	}
	return m
}

// listDir scans a store directory. Unrecognized files are ignored (a
// crashed snapshot temp file, an editor backup). Multiple .active
// files — impossible from this writer, conceivable from a botched
// copy — keep only the newest active; older ones are treated as sealed
// segments missing their footer (replay tolerates that).
func listDir(dir string) (dirListing, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return dirListing{}, nil
		}
		return dirListing{}, fmt.Errorf("store: read dir: %w", err)
	}
	var ls dirListing
	var actives []segFile
	for _, ent := range ents {
		if ent.IsDir() {
			continue
		}
		name := ent.Name()
		path := filepath.Join(dir, name)
		switch {
		case strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".seal"):
			if seq, ok := parseSeq(name, "seg-", ".seal"); ok {
				ls.sealed = append(ls.sealed, segFile{seq: seq, path: path})
			}
		case strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".active"):
			if seq, ok := parseSeq(name, "seg-", ".active"); ok {
				actives = append(actives, segFile{seq: seq, path: path})
			}
		case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap"):
			if upTo, ok := parseSeq(name, "snap-", ".snap"); ok {
				ls.snaps = append(ls.snaps, snapFile{upTo: upTo, path: path})
			}
		}
	}
	sort.Slice(ls.sealed, func(i, j int) bool { return ls.sealed[i].seq < ls.sealed[j].seq })
	sort.Slice(ls.snaps, func(i, j int) bool { return ls.snaps[i].upTo < ls.snaps[j].upTo })
	sort.Slice(actives, func(i, j int) bool { return actives[i].seq < actives[j].seq })
	if len(actives) > 0 {
		a := actives[len(actives)-1]
		ls.active = &a
		ls.sealed = append(ls.sealed, actives[:len(actives)-1]...)
		sort.Slice(ls.sealed, func(i, j int) bool { return ls.sealed[i].seq < ls.sealed[j].seq })
	}
	return ls, nil
}

func parseSeq(name, prefix, suffix string) (uint64, bool) {
	mid := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
	n, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// segScan is what scanSegment learned about a segment file.
type segScan struct {
	// sealed reports a complete seal footer as the file's last line.
	sealed bool
	footer sealFooter
	// goodBytes is the byte length of the complete record lines
	// (newlines included, footer excluded).
	goodBytes int64
	// records counts complete record lines.
	records int
	// crc is the IEEE CRC-32 over the first goodBytes bytes.
	crc uint32
	// tornBytes counts trailing bytes after the last newline — a
	// half-written record from a crash.
	tornBytes int64
}

// scanSegment reads a segment file byte-exactly: every complete line
// counts as a record (content is not parsed — replay does that), the
// last complete line is checked for a seal footer, and anything after
// the final newline is the torn tail. Open uses this to adopt a
// pre-existing active segment with an accurate running checksum. The
// checksum streams over every byte, but at most maxLine+1 bytes of a
// line are kept (a footer is short, so a longer line cannot be one):
// a corrupt or foreign file, such as a migrated legacy journal, cannot
// make the scan buffer a huge line or torn tail.
func scanSegment(path string, maxLine int) (segScan, error) {
	f, err := os.Open(path)
	if err != nil {
		return segScan{}, fmt.Errorf("store: scan segment: %w", err)
	}
	defer f.Close()
	keep := maxLine + 1
	var (
		crc   uint32 // over every byte read
		n     int64  // bytes read
		lines int    // complete lines
		// The line being read: its start offset and checksum there,
		// and its kept prefix (over: longer than keep).
		cur      []byte
		curOver  bool
		curStart int64
		curCRC   uint32
		// The last complete line, the footer candidate: the same (its
		// kept bytes empty when it was too long to keep), plus the
		// offset and checksum just past its newline.
		last              []byte
		lastStart, endOff int64
		lastCRC, endCRC   uint32
	)
	br := bufio.NewReader(f)
	for {
		chunk, rerr := br.ReadSlice('\n')
		crc = crc32.Update(crc, crc32.IEEETable, chunk)
		n += int64(len(chunk))
		if !curOver {
			if len(cur)+len(chunk) > keep {
				curOver, cur = true, cur[:0]
			} else {
				cur = append(cur, chunk...)
			}
		}
		if rerr == bufio.ErrBufferFull {
			continue
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return segScan{}, fmt.Errorf("store: scan segment: %w", rerr)
		}
		lines++
		last, cur, curOver = cur, last[:0], false
		lastStart, lastCRC, endOff, endCRC = curStart, curCRC, n, crc
		curStart, curCRC = n, crc
	}
	st := segScan{goodBytes: endOff, records: lines, crc: endCRC, tornBytes: n - endOff}
	if len(last) > 0 && st.tornBytes == 0 {
		if sf, ok := parseFooter(last[:len(last)-1]); ok {
			st.sealed, st.footer = true, sf
			st.goodBytes, st.records, st.crc = lastStart, lines-1, lastCRC
		}
	}
	return st, nil
}

// forEachLine feeds every complete line of r to fn, newline stripped.
// Lines longer than maxLine are skipped and counted (they cannot be
// valid records — the writer refuses them — so a huge line means
// corruption, and buffering it fully would let a corrupt file exhaust
// memory). Trailing bytes with no newline are the torn tail. An error
// from fn stops the walk.
func forEachLine(r io.Reader, maxLine int, fn func(line []byte) error) (torn bool, oversized int, err error) {
	br := bufio.NewReader(r)
	var buf []byte
	over := false
	for {
		// ReadSlice contract: nil error means the chunk ends at the
		// newline (line complete); ErrBufferFull means more of the same
		// line follows; io.EOF means trailing bytes with no newline.
		chunk, rerr := br.ReadSlice('\n')
		if len(chunk) > 0 && !over {
			if len(buf)+len(chunk) > maxLine+1 {
				over = true
				buf = buf[:0]
			} else {
				buf = append(buf, chunk...)
			}
		}
		switch rerr {
		case bufio.ErrBufferFull:
			continue
		case nil:
			if over {
				oversized++
				over = false
			} else if ferr := fn(buf[:len(buf)-1]); ferr != nil {
				return false, oversized, ferr
			}
			buf = buf[:0]
		case io.EOF:
			return over || len(buf) > 0, oversized, nil
		default:
			return false, oversized, fmt.Errorf("store: read segment: %w", rerr)
		}
	}
}

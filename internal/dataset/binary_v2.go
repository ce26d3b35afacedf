package dataset

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"unsafe"
)

// EPFB is the binary corpus codec: a compact, bit-exact encoding for
// fleet-scale corpora where CSV/JSON parse time dominates. Its only
// layout, version 2, streams chunks of rows with one section per
// column:
//
//	magic "EPFB" | uvarint version=2
//	repeated chunks until EOF:
//	  uvarint rowCount | uvarint sectionCount
//	  repeated sections: uvarint sectionID | uvarint byteLen | payload
//
// Section payloads hold one column for every row of the chunk:
//
//   - string columns: rowCount uvarint lengths, then the concatenated
//     bytes (decoded with a single string conversion per section);
//   - integer columns: rowCount zigzag varints;
//   - float columns: rowCount raw 8-byte little-endian IEEE 754 values,
//     bulk-read into the preallocated column, so every value
//     round-trips bit for bit;
//   - the level-count column: rowCount uvarints, defining the chunk's
//     flattened level total;
//   - level float columns: levelTotal raw 8-byte floats.
//
// Unlike CSV, which flattens to exactly ten levels, EPFB preserves
// variable-length level lists. The writer emits sections in ascending
// ID order; the reader requires only that the level-count section
// precede the level float sections, and skips unknown section IDs, so
// future columns can be added without breaking old readers. Other
// versions, the retired record-major version 1 included, are rejected.

var binaryMagic = [4]byte{'E', 'P', 'F', 'B'}

const (
	binaryVersion = 2

	// maxChunkRows bounds one chunk's row count so a corrupt header
	// fails cleanly instead of attempting a huge allocation.
	maxChunkRows = 1 << 20
	// maxColumnSection bounds one section's payload (128 MiB covers
	// maxChunkRows levels at 8 bytes with headroom).
	maxColumnSection = 1 << 27

	// colChunkRows is the writer's chunk size: large enough that
	// section framing is noise, small enough to bound the writer's
	// scratch memory while streaming.
	colChunkRows = 1 << 16
)

// Section IDs of the v2 layout.
const (
	secID uint64 = iota + 1
	secVendor
	secSystem
	secCPUModel
	secJVM
	secOS
	secFormFactor
	secPubYear
	secPubQuarter
	secHWYear
	secHWQuarter
	secNodes
	secChips
	secCoresPerChip
	secCodename
	secNominalGHz
	secMemoryGB
	secIdleWatts
	secLevelCounts
	secLevelTarget
	secLevelActual
	secLevelOps
	secLevelPower

	numSections = int(secLevelPower)
)

// ColumnWriter streams column stores into the EPFB v2 encoding, one
// chunk per WriteChunk call (large stores are split internally). It is
// the bounded-memory path: specgen writes a fleet shard by shard
// without ever holding the full corpus.
type ColumnWriter struct {
	w   *bufio.Writer
	buf []byte
}

// NewColumnWriter writes the v2 format header and returns a writer.
// Call Flush after the last chunk.
func NewColumnWriter(w io.Writer) (*ColumnWriter, error) {
	cw := &ColumnWriter{w: bufio.NewWriter(w)}
	if _, err := cw.w.Write(binaryMagic[:]); err != nil {
		return nil, fmt.Errorf("dataset: write binary header: %w", err)
	}
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], binaryVersion)
	if _, err := cw.w.Write(hdr[:n]); err != nil {
		return nil, fmt.Errorf("dataset: write binary header: %w", err)
	}
	return cw, nil
}

// WriteChunk appends the store's rows, splitting into chunks of at most
// colChunkRows.
func (cw *ColumnWriter) WriteChunk(cs *ColumnStore) error {
	for lo := 0; lo < cs.n; lo += colChunkRows {
		hi := lo + colChunkRows
		if hi > cs.n {
			hi = cs.n
		}
		if err := cw.writeChunkRange(cs, lo, hi); err != nil {
			return err
		}
	}
	return nil
}

// Flush drains the writer's buffer to the underlying stream.
func (cw *ColumnWriter) Flush() error {
	if err := cw.w.Flush(); err != nil {
		return fmt.Errorf("dataset: flush binary: %w", err)
	}
	return nil
}

func (cw *ColumnWriter) writeChunkRange(cs *ColumnStore, lo, hi int) error {
	rows := hi - lo
	var hdr [2 * binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(rows))
	n += binary.PutUvarint(hdr[n:], uint64(numSections))
	if _, err := cw.w.Write(hdr[:n]); err != nil {
		return fmt.Errorf("dataset: write binary chunk header: %w", err)
	}
	llo, lhi := cs.levelOff[lo], cs.levelOff[hi]
	appendStrings := func(b []byte, col []string) []byte {
		for _, s := range col[lo:hi] {
			b = appendUvarint(b, uint64(len(s)))
		}
		for _, s := range col[lo:hi] {
			b = append(b, s...)
		}
		return b
	}
	appendFloats := func(b []byte, col []float64) []byte {
		for _, v := range col {
			b = appendFloat(b, v)
		}
		return b
	}
	sections := []struct {
		id     uint64
		encode func([]byte) []byte
	}{
		{secID, func(b []byte) []byte { return appendStrings(b, cs.ids) }},
		{secVendor, func(b []byte) []byte { return appendStrings(b, cs.vendors) }},
		{secSystem, func(b []byte) []byte { return appendStrings(b, cs.systems) }},
		{secCPUModel, func(b []byte) []byte { return appendStrings(b, cs.cpuModels) }},
		{secJVM, func(b []byte) []byte { return appendStrings(b, cs.jvms) }},
		{secOS, func(b []byte) []byte { return appendStrings(b, cs.oss) }},
		{secFormFactor, func(b []byte) []byte {
			for _, v := range cs.formFactors[lo:hi] {
				b = appendVarint(b, int64(v))
			}
			return b
		}},
		{secPubYear, func(b []byte) []byte { return appendVarint32s(b, cs.pubYears[lo:hi]) }},
		{secPubQuarter, func(b []byte) []byte { return appendVarint32s(b, cs.pubQuarters[lo:hi]) }},
		{secHWYear, func(b []byte) []byte { return appendVarint32s(b, cs.hwYears[lo:hi]) }},
		{secHWQuarter, func(b []byte) []byte { return appendVarint32s(b, cs.hwQuarters[lo:hi]) }},
		{secNodes, func(b []byte) []byte { return appendVarint32s(b, cs.nodes[lo:hi]) }},
		{secChips, func(b []byte) []byte { return appendVarint32s(b, cs.chips[lo:hi]) }},
		{secCoresPerChip, func(b []byte) []byte { return appendVarint32s(b, cs.coresPerChip[lo:hi]) }},
		{secCodename, func(b []byte) []byte {
			for _, v := range cs.codenames[lo:hi] {
				b = appendVarint(b, int64(v))
			}
			return b
		}},
		{secNominalGHz, func(b []byte) []byte { return appendFloats(b, cs.nominalGHz[lo:hi]) }},
		{secMemoryGB, func(b []byte) []byte { return appendFloats(b, cs.memoryGB[lo:hi]) }},
		{secIdleWatts, func(b []byte) []byte { return appendFloats(b, cs.idleWatts[lo:hi]) }},
		{secLevelCounts, func(b []byte) []byte {
			for i := lo; i < hi; i++ {
				b = appendUvarint(b, uint64(cs.levelOff[i+1]-cs.levelOff[i]))
			}
			return b
		}},
		{secLevelTarget, func(b []byte) []byte { return appendFloats(b, cs.levelTarget[llo:lhi]) }},
		{secLevelActual, func(b []byte) []byte { return appendFloats(b, cs.levelActual[llo:lhi]) }},
		{secLevelOps, func(b []byte) []byte { return appendFloats(b, cs.levelOps[llo:lhi]) }},
		{secLevelPower, func(b []byte) []byte { return appendFloats(b, cs.levelPower[llo:lhi]) }},
	}
	for _, sec := range sections {
		cw.buf = sec.encode(cw.buf[:0])
		var shdr [2 * binary.MaxVarintLen64]byte
		n := binary.PutUvarint(shdr[:], sec.id)
		n += binary.PutUvarint(shdr[n:], uint64(len(cw.buf)))
		if _, err := cw.w.Write(shdr[:n]); err != nil {
			return fmt.Errorf("dataset: write binary section %d: %w", sec.id, err)
		}
		if _, err := cw.w.Write(cw.buf); err != nil {
			return fmt.Errorf("dataset: write binary section %d: %w", sec.id, err)
		}
	}
	return nil
}

func appendUvarint(b []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	return append(b, tmp[:binary.PutUvarint(tmp[:], v)]...)
}

func appendVarint(b []byte, v int64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	return append(b, tmp[:binary.PutVarint(tmp[:], v)]...)
}

func appendFloat(b []byte, v float64) []byte {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(v))
	return append(b, tmp[:]...)
}

func appendVarint32s(b []byte, col []int32) []byte {
	for _, v := range col {
		b = appendVarint(b, int64(v))
	}
	return b
}

// WriteColumns writes the store in the EPFB v2 columnar encoding.
func WriteColumns(w io.Writer, cs *ColumnStore) error {
	cw, err := NewColumnWriter(w)
	if err != nil {
		return err
	}
	if err := cw.WriteChunk(cs); err != nil {
		return err
	}
	return cw.Flush()
}

// ReadColumns parses an EPFB corpus into a ColumnStore. It reads the
// whole input into memory and decodes it with ReadColumnsBytes.
func ReadColumns(r io.Reader) (*ColumnStore, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("dataset: read binary: %w", err)
	}
	return ReadColumnsBytes(data)
}

// ReadColumnsBytes parses an in-memory EPFB corpus into a ColumnStore.
// A header pre-scan sizes every column up front, and section payloads
// decode straight out of data. The store does not retain data.
func ReadColumnsBytes(data []byte) (*ColumnStore, error) {
	hdr := len(binaryMagic)
	if len(data) < hdr {
		return nil, fmt.Errorf("dataset: read binary header: %w", io.ErrUnexpectedEOF)
	}
	if [4]byte(data[:hdr]) != binaryMagic {
		return nil, fmt.Errorf("dataset: bad binary magic %q", data[:hdr])
	}
	version, n := binary.Uvarint(data[hdr:])
	if n <= 0 {
		return nil, fmt.Errorf("dataset: read binary version: %w", io.ErrUnexpectedEOF)
	}
	if version != binaryVersion {
		return nil, fmt.Errorf("dataset: unsupported binary version %d", version)
	}
	return decodeColumnsV2Bytes(data[hdr+n:])
}

func decodeColumnsV2Bytes(body []byte) (*ColumnStore, error) {
	rowsHint, levelsHint := prescanColumnsV2(body)
	cs := NewColumnBuilder(rowsHint, levelsHint).cs
	src := &byteSections{body: body}
	for src.off < len(body) {
		rows, n := binary.Uvarint(body[src.off:])
		if n <= 0 {
			return nil, fmt.Errorf("dataset: read binary chunk header: %w", io.ErrUnexpectedEOF)
		}
		src.off += n
		if rows == 0 || rows > maxChunkRows {
			return nil, fmt.Errorf("dataset: binary chunk row count %d out of range [1,%d]", rows, maxChunkRows)
		}
		nSections, n := binary.Uvarint(body[src.off:])
		if n <= 0 {
			return nil, fmt.Errorf("dataset: read binary chunk header: %w", io.ErrUnexpectedEOF)
		}
		src.off += n
		if nSections > 1<<10 {
			return nil, fmt.Errorf("dataset: binary chunk section count %d out of range", nSections)
		}
		if err := cs.decodeChunk(int(rows), int(nSections), src); err != nil {
			return nil, err
		}
	}
	if err := cs.checkConsistent(); err != nil {
		return nil, err
	}
	return cs, nil
}

// prescanColumnsV2 walks the chunk framing without decoding payloads
// and returns capacity hints for the row and level columns. The hints
// are exact for well-formed input; for corrupt input they are clamped
// by the bytes actually present (each well-formed row costs at least
// 40 encoded bytes), so a tiny hostile file cannot demand a huge
// allocation. Decode falls back to growTail if a hint is low.
func prescanColumnsV2(body []byte) (rowsHint, levelsHint int) {
	off := 0
scan:
	for off < len(body) {
		rows, n := binary.Uvarint(body[off:])
		if n <= 0 || rows == 0 || rows > maxChunkRows {
			break
		}
		off += n
		nSections, n := binary.Uvarint(body[off:])
		if n <= 0 || nSections > 1<<10 {
			break
		}
		off += n
		chunkRows := int(rows)
		for s := 0; s < int(nSections); s++ {
			id, n := binary.Uvarint(body[off:])
			if n <= 0 {
				break scan
			}
			off += n
			size, n := binary.Uvarint(body[off:])
			if n <= 0 {
				break scan
			}
			off += n
			if size > uint64(len(body)-off) {
				break scan
			}
			if id == secLevelCounts && int(size) < chunkRows {
				chunkRows = int(size) // each row's level count is ≥1 byte
			}
			if id == secLevelTarget {
				levelsHint += int(size) / 8
			}
			off += int(size)
		}
		rowsHint += chunkRows
	}
	if max := len(body) / 40; rowsHint > max {
		rowsHint = max
	}
	return rowsHint, levelsHint
}

// byteSections yields one chunk's section payloads, in stream order,
// sliced straight out of an in-memory corpus.
type byteSections struct {
	body []byte
	off  int
}

func (s *byteSections) next() (uint64, []byte, error) {
	id, n := binary.Uvarint(s.body[s.off:])
	if n <= 0 {
		return 0, nil, fmt.Errorf("dataset: read binary section header: %w", io.ErrUnexpectedEOF)
	}
	s.off += n
	size, n := binary.Uvarint(s.body[s.off:])
	if n <= 0 {
		return 0, nil, fmt.Errorf("dataset: read binary section header: %w", io.ErrUnexpectedEOF)
	}
	s.off += n
	if size > maxColumnSection {
		return 0, nil, fmt.Errorf("dataset: binary section %d length %d exceeds limit %d", id, size, maxColumnSection)
	}
	if size > uint64(len(s.body)-s.off) {
		return 0, nil, fmt.Errorf("dataset: read binary section %d: %w", id, io.ErrUnexpectedEOF)
	}
	payload := s.body[s.off : s.off+int(size)]
	s.off += int(size)
	return id, payload, nil
}

// decodeChunk appends one chunk's sections to the store's columns.
func (cs *ColumnStore) decodeChunk(rows, nSections int, src *byteSections) error {
	var seen uint32  // bitmask of the known section IDs decoded so far
	levelTotal := -1 // unknown until secLevelCounts
	for s := 0; s < nSections; s++ {
		id, payload, err := src.next()
		if err != nil {
			return err
		}
		if id >= 1 && id <= uint64(numSections) {
			if seen&(1<<id) != 0 {
				return fmt.Errorf("dataset: duplicate binary section %d", id)
			}
			seen |= 1 << id
		}
		if id >= secLevelTarget && id <= secLevelPower && levelTotal < 0 {
			return fmt.Errorf("dataset: binary section %d precedes level counts", id)
		}
		if err := cs.decodeSection(id, payload, rows, levelTotal); err != nil {
			return err
		}
		if id == secLevelCounts {
			levelTotal = int(cs.levelOff[len(cs.levelOff)-1] - cs.levelOff[len(cs.levelOff)-1-rows])
		}
	}
	for id := uint64(1); id <= uint64(numSections); id++ {
		if seen&(1<<id) == 0 {
			return fmt.Errorf("dataset: binary chunk missing section %d", id)
		}
	}
	cs.n += rows
	return nil
}

// growTail extends col by n elements and returns the freshly appended
// tail for the caller to fill by index. Capacity at least doubles on
// reallocation so a multi-chunk stream costs O(n) amortized copying;
// the hot decode paths write through the returned tail instead of
// appending element-wise (or splicing in a zeroed temporary), which is
// where the v2 reader previously spent most of its time.
func growTail[T any](col *[]T, n int) []T {
	s := *col
	need := len(s) + n
	if need > cap(s) {
		newCap := 2 * cap(s)
		if newCap < need {
			newCap = need
		}
		t := make([]T, len(s), newCap)
		copy(t, s)
		s = t
	}
	s = s[:need]
	*col = s
	return s[need-n:]
}

// decodeSection bulk-decodes one column section into the store.
// Unknown section IDs are skipped for forward compatibility.
func (cs *ColumnStore) decodeSection(id uint64, payload []byte, rows, levelTotal int) error {
	switch id {
	case secID:
		return decodeStringColumn(id, payload, rows, &cs.ids)
	case secVendor:
		return decodeStringColumn(id, payload, rows, &cs.vendors)
	case secSystem:
		return decodeStringColumn(id, payload, rows, &cs.systems)
	case secCPUModel:
		return decodeStringColumn(id, payload, rows, &cs.cpuModels)
	case secJVM:
		return decodeStringColumn(id, payload, rows, &cs.jvms)
	case secOS:
		return decodeStringColumn(id, payload, rows, &cs.oss)
	case secFormFactor:
		return decodeVarintColumn(id, payload, rows, &cs.formFactors)
	case secPubYear:
		return decodeVarintColumn(id, payload, rows, &cs.pubYears)
	case secPubQuarter:
		return decodeVarintColumn(id, payload, rows, &cs.pubQuarters)
	case secHWYear:
		return decodeVarintColumn(id, payload, rows, &cs.hwYears)
	case secHWQuarter:
		return decodeVarintColumn(id, payload, rows, &cs.hwQuarters)
	case secNodes:
		return decodeVarintColumn(id, payload, rows, &cs.nodes)
	case secChips:
		return decodeVarintColumn(id, payload, rows, &cs.chips)
	case secCoresPerChip:
		return decodeVarintColumn(id, payload, rows, &cs.coresPerChip)
	case secCodename:
		return decodeVarintColumn(id, payload, rows, &cs.codenames)
	case secNominalGHz:
		return decodeFloatColumn(id, payload, rows, &cs.nominalGHz)
	case secMemoryGB:
		return decodeFloatColumn(id, payload, rows, &cs.memoryGB)
	case secIdleWatts:
		return decodeFloatColumn(id, payload, rows, &cs.idleWatts)
	case secLevelCounts:
		// On any decode error the whole store is discarded, so the
		// pre-grown tail never leaks partially filled offsets.
		base := cs.levelOff[len(cs.levelOff)-1]
		dst := growTail(&cs.levelOff, rows)
		total := uint64(0)
		for i := 0; i < rows; i++ {
			v, n := uvarintFast(payload)
			if n <= 0 {
				return fmt.Errorf("dataset: binary section %d truncated at row %d", id, i)
			}
			payload = payload[n:]
			total += v
			if total > maxColumnSection/8 || uint64(base)+total > 1<<31-1 {
				return fmt.Errorf("dataset: binary chunk level total %d exceeds limit", total)
			}
			dst[i] = base + int32(total)
		}
		if len(payload) != 0 {
			return fmt.Errorf("dataset: binary section %d has %d trailing bytes", id, len(payload))
		}
		return nil
	case secLevelTarget:
		return decodeFloatColumn(id, payload, levelTotal, &cs.levelTarget)
	case secLevelActual:
		return decodeFloatColumn(id, payload, levelTotal, &cs.levelActual)
	case secLevelOps:
		return decodeFloatColumn(id, payload, levelTotal, &cs.levelOps)
	case secLevelPower:
		return decodeFloatColumn(id, payload, levelTotal, &cs.levelPower)
	default:
		return nil // unknown section: skip
	}
}

// uvarintFast is binary.Uvarint with branch-light fast paths for the
// one- and two-byte encodings that dominate column payloads (string
// lengths, level counts, years, core counts).
func uvarintFast(p []byte) (uint64, int) {
	if len(p) > 0 && p[0] < 0x80 {
		return uint64(p[0]), 1
	}
	if len(p) > 1 && p[1] < 0x80 {
		return uint64(p[0]&0x7f) | uint64(p[1])<<7, 2
	}
	return binary.Uvarint(p)
}

// varintFast is binary.Varint built on uvarintFast; the zigzag decode
// matches encoding/binary exactly.
func varintFast(p []byte) (int64, int) {
	ux, n := uvarintFast(p)
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x, n
}

// decodeStringColumn decodes rows length prefixes followed by the
// concatenated bytes. The length headers are scanned twice — once to
// validate and locate the blob, once to slice it — so the section costs
// one string conversion plus the column tail, with no scratch slice.
func decodeStringColumn(id uint64, payload []byte, rows int, col *[]string) error {
	p := payload
	total := 0
	for i := 0; i < rows; i++ {
		v, n := uvarintFast(p)
		if n <= 0 {
			return fmt.Errorf("dataset: binary section %d truncated at row %d", id, i)
		}
		p = p[n:]
		if v > uint64(len(p)) {
			return fmt.Errorf("dataset: binary section %d string length %d exceeds payload", id, v)
		}
		total += int(v)
	}
	if len(p) != total {
		return fmt.Errorf("dataset: binary section %d blob length %d, want %d", id, len(p), total)
	}
	blob := string(p)
	dst := growTail(col, rows)
	off := 0
	for i := range dst {
		v, n := uvarintFast(payload)
		payload = payload[n:]
		dst[i] = blob[off : off+int(v)]
		off += int(v)
	}
	return nil
}

// decodeVarintColumn decodes rows zigzag varints straight into the
// integer column's pre-grown tail.
func decodeVarintColumn[T ~int | ~int32](id uint64, payload []byte, rows int, col *[]T) error {
	dst := growTail(col, rows)
	for i := range dst {
		v, n := varintFast(payload)
		if n <= 0 {
			return fmt.Errorf("dataset: binary section %d truncated at row %d", id, i)
		}
		payload = payload[n:]
		dst[i] = T(v)
	}
	if len(payload) != 0 {
		return fmt.Errorf("dataset: binary section %d has %d trailing bytes", id, len(payload))
	}
	return nil
}

// hostLittleEndian reports whether float64 memory already matches the
// wire byte order, enabling the bulk-copy float decode.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// decodeFloatColumn bulk-reads count raw 8-byte little-endian floats
// into the column's pre-grown tail. On little-endian hosts the payload
// is the column's exact memory image, so the decode is one copy; the
// bits stored are identical either way.
func decodeFloatColumn(id uint64, payload []byte, count int, col *[]float64) error {
	if len(payload) != 8*count {
		return fmt.Errorf("dataset: binary section %d length %d, want %d", id, len(payload), 8*count)
	}
	if count == 0 {
		return nil
	}
	dst := growTail(col, count)
	if hostLittleEndian {
		copy(unsafe.Slice((*byte)(unsafe.Pointer(&dst[0])), 8*count), payload)
		return nil
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8*i:]))
	}
	return nil
}

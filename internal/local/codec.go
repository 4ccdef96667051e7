package local

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
)

// This file is the CutBlock wire codec: the framed, versioned byte
// encoding a cut block takes on a real byte-stream transport. A frame
// is self-delimiting, so links can ship one block per round over any
// net.Conn with no out-of-band coordination:
//
//	offset  size  field
//	0       4     magic "rlCB"
//	4       1     version (currently 1)
//	5       3     reserved, must be zero
//	8       4     round (uint32) — the round the sender packed
//	12      4     lens count (uint32)
//	16      4     words count (uint32)
//	20      4     reserved, must be zero
//	24      ...   lens   (int32 little-endian each)
//	...     ...   words  (uint64 little-endian each)
//
// Lens and words are the exact slab ranges packCut flattens — fixed
// width, so encoding is a bounds-checked copy in each direction and the
// decoded block installs with no further translation. A frame that
// sets any reserved byte is malformed.

// ErrFrame reports a malformed cut-block frame: bad magic, an
// unsupported version, a declared section exceeding the frame bounds, a
// truncated stream, or a round mismatch. A frame error aborts the
// sharded run with a descriptive message instead of panicking or
// hanging.
var ErrFrame = errors.New("local: malformed cut-block frame")

const (
	frameMagic   = "rlCB"
	frameVersion = 1
	frameHdrLen  = 24

	// maxFrameSection bounds each declared section, making a corrupt or
	// hostile length field an error instead of an allocation bomb: 1<<26
	// words is a 512 MiB slab range, far beyond any real layout.
	maxFrameSection = 1 << 26

	// frameReadChunk is the first read step of a payload larger than the
	// reusable buffer; later steps double with the bytes received.
	frameReadChunk = 1 << 16
)

// appendFrame encodes one cut block as a frame appended to dst and
// returns the extended buffer (callers reuse it across rounds).
func appendFrame(dst []byte, round int, blk CutBlock) []byte {
	dst = append(dst, frameMagic...)
	dst = append(dst, frameVersion, 0, 0, 0)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(round))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(blk.Lens)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(blk.Words)))
	dst = binary.LittleEndian.AppendUint32(dst, 0)
	for _, l := range blk.Lens {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(l))
	}
	for _, w := range blk.Words {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

// readFrame reads and decodes one frame from r into blk, reusing its
// backing arrays, and verifies the frame carries the expected round.
// scratch is the reusable payload read buffer; the grown buffer is
// returned for the next call.
func readFrame(r io.Reader, round int, blk *CutBlock, scratch []byte) ([]byte, error) {
	var hdr [frameHdrLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF || err == io.EOF {
			return scratch, fmt.Errorf("%w: truncated header (%v)", ErrFrame, err)
		}
		return scratch, err
	}
	if string(hdr[0:4]) != frameMagic {
		return scratch, fmt.Errorf("%w: bad magic %q", ErrFrame, hdr[0:4])
	}
	if hdr[4] != frameVersion {
		return scratch, fmt.Errorf("%w: version %d, this build speaks %d", ErrFrame, hdr[4], frameVersion)
	}
	if hdr[5] != 0 || hdr[6] != 0 || hdr[7] != 0 || binary.LittleEndian.Uint32(hdr[20:24]) != 0 {
		return scratch, fmt.Errorf("%w: nonzero reserved bytes", ErrFrame)
	}
	gotRound := int(binary.LittleEndian.Uint32(hdr[8:12]))
	nLens := int(binary.LittleEndian.Uint32(hdr[12:16]))
	nWords := int(binary.LittleEndian.Uint32(hdr[16:20]))
	if nLens > maxFrameSection || nWords > maxFrameSection {
		return scratch, fmt.Errorf("%w: oversized frame (%d lens, %d words)", ErrFrame, nLens, nWords)
	}
	if gotRound != round {
		return scratch, fmt.Errorf("%w: frame for round %d arrived in round %d", ErrFrame, gotRound, round)
	}
	scratch, err := readPayload(r, scratch, 4*nLens+8*nWords)
	if err != nil {
		if err == io.ErrUnexpectedEOF || err == io.EOF {
			return scratch, fmt.Errorf("%w: truncated payload (%v)", ErrFrame, err)
		}
		return scratch, err
	}
	blk.Lens = sliceFor(blk.Lens, nLens)[:0]
	for i := 0; i < nLens; i++ {
		blk.Lens = append(blk.Lens, int32(binary.LittleEndian.Uint32(scratch[4*i:])))
	}
	words := scratch[4*nLens:]
	blk.Words = sliceFor(blk.Words, nWords)[:0]
	for i := 0; i < nWords; i++ {
		blk.Words = append(blk.Words, binary.LittleEndian.Uint64(words[8*i:]))
	}
	return scratch, nil
}

// readPayload reads need bytes from r into buf's backing array and
// returns the filled buffer. A buffer already large enough takes one
// read — the steady state, since links reuse one buffer across rounds.
// Otherwise the buffer grows at most geometrically with the bytes that
// actually arrive, so a header that declares a huge payload and then
// stops costs what the peer sent, not what it claimed.
func readPayload(r io.Reader, buf []byte, need int) ([]byte, error) {
	if cap(buf) >= need {
		buf = buf[:need]
		_, err := io.ReadFull(r, buf)
		return buf, err
	}
	buf = buf[:0]
	for len(buf) < need {
		step := min(need-len(buf), max(len(buf), frameReadChunk))
		buf = slices.Grow(buf, step)
		n, err := io.ReadFull(r, buf[len(buf):len(buf)+step])
		buf = buf[:len(buf)+n]
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}

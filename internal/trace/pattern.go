package trace

import (
	"fmt"
	"math"
	"strings"

	"primecache/internal/cache"
)

// Pattern is a serialisable description of a synthetic access pattern —
// the generator codec shared by the vcachesim CLI and the vcached
// server. Zero-valued fields take the CLI's historical defaults in
// Normalize.
type Pattern struct {
	// Name selects the generator: "strided", "diagonal", "subblock",
	// "rowcol", or "fft".
	Name string `json:"name"`
	// Start is the starting word address.
	Start uint64 `json:"start,omitempty"`
	// Stride is the word stride for "strided" (default 1).
	Stride int64 `json:"stride,omitempty"`
	// N is elements per pass (strided/diagonal/rowcol) or total points
	// (fft); default 4096.
	N int `json:"n,omitempty"`
	// LD is the matrix leading dimension for subblock/rowcol/diagonal
	// (default 10000).
	LD int `json:"ld,omitempty"`
	// B1 and B2 are sub-block rows/columns ("subblock") or the FFT B2
	// ("fft"); default 64.
	B1 int `json:"b1,omitempty"`
	B2 int `json:"b2,omitempty"`
	// Stream is the vector-stream id accesses are attributed to
	// (default 1).
	Stream int `json:"stream,omitempty"`
}

// Normalize returns a copy of p with defaults filled in for zero-valued
// fields.
func (p Pattern) Normalize() Pattern {
	if p.Name == "" {
		p.Name = "strided"
	}
	p.Name = strings.ToLower(p.Name)
	if p.Stride == 0 {
		p.Stride = 1
	}
	if p.N == 0 {
		p.N = 4096
	}
	if p.LD == 0 {
		p.LD = 10000
	}
	if p.B1 == 0 {
		p.B1 = 64
	}
	if p.B2 == 0 {
		p.B2 = 64
	}
	if p.Stream == 0 {
		p.Stream = 1
	}
	return p
}

// Validate checks the (normalised) pattern without materialising it.
func (p Pattern) Validate() error {
	p = p.Normalize()
	switch p.Name {
	case "strided", "diagonal", "subblock", "rowcol", "fft":
	default:
		return fmt.Errorf("trace: unknown pattern %q (want strided, diagonal, subblock, rowcol, or fft)", p.Name)
	}
	if p.N < 0 {
		return fmt.Errorf("trace: pattern n must be non-negative, got %d", p.N)
	}
	if p.LD <= 0 {
		return fmt.Errorf("trace: pattern ld must be positive, got %d", p.LD)
	}
	if p.B1 < 0 || p.B2 < 0 {
		return fmt.Errorf("trace: pattern b1/b2 must be non-negative, got %d/%d", p.B1, p.B2)
	}
	if p.Name == "fft" && (p.B2 <= 0 || p.N%p.B2 != 0) {
		return fmt.Errorf("trace: fft pattern needs b2 (%d) dividing n (%d)", p.B2, p.N)
	}
	// Strided and diagonal patterns are one strided walk each.
	stride := p.Stride
	if p.Name == "diagonal" {
		stride = int64(p.LD) + 1
	}
	if (p.Name == "strided" || p.Name == "diagonal") && !cache.StridedAddrsSafe(p.Start, stride, p.N) {
		return fmt.Errorf("trace: %s walk from word %d by %d for %d elements leaves the address range [0, 2^62)",
			p.Name, p.Start, stride, p.N)
	}
	return nil
}

// RefCount returns the number of references one pass of the pattern
// materialises — len(Build()) without the allocation — saturating at
// math.MaxInt on overflow. Callers can bound a job against a reference
// budget before paying for the trace.
func (p Pattern) RefCount() int {
	p = p.Normalize()
	switch p.Name {
	case "strided", "diagonal":
		return p.N
	case "subblock":
		return satMul(p.B1, p.B2)
	case "rowcol":
		// Build caps the column sweep at min(n/2, ld) and appends an
		// n/2-element row sweep.
		col := p.N / 2
		if col > p.LD {
			col = p.LD
		}
		return satAdd(col, p.N/2)
	case "fft":
		if p.B2 <= 0 {
			return 0
		}
		return satMul(p.B2, p.N/p.B2)
	default:
		return 0
	}
}

// satMul and satAdd multiply/add non-negative ints, saturating at
// math.MaxInt instead of wrapping.
func satMul(a, b int) int {
	if a > 0 && b > math.MaxInt/a {
		return math.MaxInt
	}
	return a * b
}

func satAdd(a, b int) int {
	if a > math.MaxInt-b {
		return math.MaxInt
	}
	return a + b
}

// Build materialises one pass of the pattern as a Trace.
func (p Pattern) Build() (Trace, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	p = p.Normalize()
	switch p.Name {
	case "strided":
		return Strided(p.Start, p.Stride, p.N, p.Stream), nil
	case "diagonal":
		return Diagonal(p.Start, p.LD, p.N, p.Stream), nil
	case "subblock":
		return Subblock(p.Start, p.LD, p.B1, p.B2, p.Stream), nil
	case "rowcol":
		// Alternating column (stride 1) and row (stride ld) sweeps.
		col := Column(p.Start, p.LD, 0, p.Stream)
		row := Row(p.Start, p.LD, p.N/2, 0, p.Stream+1)
		n := p.N / 2
		if n > len(col) {
			n = len(col)
		}
		return Concat(col[:n], row), nil
	case "fft":
		rows := p.B2
		cols := p.N / p.B2
		var tr Trace
		for r := 0; r < rows; r++ {
			tr = append(tr, Strided(p.Start+uint64(r), int64(p.B2), cols, p.Stream)...)
		}
		return tr, nil
	default:
		return nil, fmt.Errorf("trace: unknown pattern %q", p.Name)
	}
}

// String returns the canonical compact form of the normalised pattern;
// equal patterns render identically, so the string doubles as a
// memoization key component.
func (p Pattern) String() string {
	p = p.Normalize()
	switch p.Name {
	case "strided":
		return fmt.Sprintf("strided:start=%d,stride=%d,n=%d,stream=%d", p.Start, p.Stride, p.N, p.Stream)
	case "diagonal":
		return fmt.Sprintf("diagonal:start=%d,ld=%d,n=%d,stream=%d", p.Start, p.LD, p.N, p.Stream)
	case "subblock":
		return fmt.Sprintf("subblock:start=%d,ld=%d,b1=%d,b2=%d,stream=%d", p.Start, p.LD, p.B1, p.B2, p.Stream)
	case "rowcol":
		return fmt.Sprintf("rowcol:start=%d,ld=%d,n=%d,stream=%d", p.Start, p.LD, p.N, p.Stream)
	case "fft":
		return fmt.Sprintf("fft:start=%d,n=%d,b2=%d,stream=%d", p.Start, p.N, p.B2, p.Stream)
	default:
		return p.Name
	}
}

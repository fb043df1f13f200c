package stats

import (
	"fmt"
	"strings"

	"rampage/internal/mem"
)

// levelGlyphs are the bar characters per level: instruction L1, data
// L1, L2/SRAM, DRAM; the remainder of the bar (pipelined CPU work, if
// any) is left blank.
var levelGlyphs = [NumLevels]byte{'i', 'd', 'S', 'D'}

// FormatLevelBars renders stacked bars of per-level run-time fractions
// — a terminal rendition of the paper's Figures 2 and 3. Bar i, for
// block/page size blocks[i], spends share(i, l) of its run in level l.
// Each bar is width characters; segments use 'i' (L1i), 'd' (L1d), 'S'
// (L2/SRAM) and 'D' (DRAM).
func FormatLevelBars(blocks []uint64, share func(i int, l Level) float64, width int) string {
	if width <= 0 {
		width = 60
	}
	var b strings.Builder
	for i, block := range blocks {
		bar := make([]byte, 0, width)
		for l := Level(0); l < NumLevels; l++ {
			n := int(share(i, l)*float64(width) + 0.5)
			for k := 0; k < n && len(bar) < width; k++ {
				bar = append(bar, levelGlyphs[l])
			}
		}
		for len(bar) < width {
			bar = append(bar, ' ')
		}
		fmt.Fprintf(&b, "%-6s |%s|\n", mem.FormatSize(block), bar)
	}
	b.WriteString(fmt.Sprintf("        i=L1i d=L1d S=L2/SRAM D=DRAM (bar = 100%% of run time)\n"))
	return b.String()
}

package workload

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"pfcache/internal/core"
)

// The instance text format understood by Marshal and Parse:
//
//	pfcache-instance v1
//	k 4
//	f 4
//	disks 2
//	disk 0 0
//	disk 5 1
//	initial 0 1 2 3
//	seq 0 1 2 3 3 4
//	seq 0 3 3 1
//
// Lines starting with '#' and blank lines are ignored.  "disk" lines are
// optional for single-disk instances; multiple "seq" lines are concatenated.

const formatHeader = "pfcache-instance v1"

// Marshal renders the instance in the text format.
func Marshal(in *core.Instance) string {
	var b strings.Builder
	fmt.Fprintln(&b, formatHeader)
	fmt.Fprintf(&b, "k %d\n", in.K)
	fmt.Fprintf(&b, "f %d\n", in.F)
	fmt.Fprintf(&b, "disks %d\n", in.Disks)
	if in.Disks > 1 {
		// Every assigned block gets its line, referenced or not: Parse needs
		// a disk map for a multi-disk instance even when no block is
		// referenced, and then only the unreferenced lines can supply it.
		blocks := in.Blocks()
		for blk := range in.DiskOf {
			blocks = append(blocks, blk)
		}
		slices.Sort(blocks)
		for _, blk := range slices.Compact(blocks) {
			fmt.Fprintf(&b, "disk %d %d\n", int(blk), in.Disk(blk))
		}
	}
	if len(in.InitialCache) > 0 {
		parts := make([]string, len(in.InitialCache))
		for i, blk := range in.InitialCache {
			parts[i] = strconv.Itoa(int(blk))
		}
		fmt.Fprintf(&b, "initial %s\n", strings.Join(parts, " "))
	}
	const perLine = 32
	for i := 0; i < len(in.Seq); i += perLine {
		end := i + perLine
		if end > len(in.Seq) {
			end = len(in.Seq)
		}
		parts := make([]string, 0, end-i)
		for _, blk := range in.Seq[i:end] {
			parts = append(parts, strconv.Itoa(int(blk)))
		}
		fmt.Fprintf(&b, "seq %s\n", strings.Join(parts, " "))
	}
	return b.String()
}

// Write writes the marshalled instance to w.
func Write(w io.Writer, in *core.Instance) error {
	_, err := io.WriteString(w, Marshal(in))
	return err
}

// Parse reads an instance in the text format.
func Parse(r io.Reader) (*core.Instance, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	in := &core.Instance{Disks: 1}
	sawHeader := false
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		if !sawHeader {
			if text != formatHeader {
				return nil, fmt.Errorf("workload: line %d: expected header %q, got %q", line, formatHeader, text)
			}
			sawHeader = true
			continue
		}
		fields := strings.Fields(text)
		key := fields[0]
		args := fields[1:]
		switch key {
		case "k", "f", "disks":
			if len(args) != 1 {
				return nil, fmt.Errorf("workload: line %d: %q needs one argument", line, key)
			}
			v, err := strconv.Atoi(args[0])
			if err != nil {
				return nil, fmt.Errorf("workload: line %d: %v", line, err)
			}
			switch key {
			case "k":
				in.K = v
			case "f":
				in.F = v
			case "disks":
				in.Disks = v
			}
		case "disk":
			if len(args) != 2 {
				return nil, fmt.Errorf("workload: line %d: \"disk\" needs block and disk", line)
			}
			blk, err1 := strconv.Atoi(args[0])
			d, err2 := strconv.Atoi(args[1])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("workload: line %d: bad disk assignment %q", line, text)
			}
			if in.DiskOf == nil {
				in.DiskOf = make(map[core.BlockID]int)
			}
			in.DiskOf[core.BlockID(blk)] = d
		case "initial":
			for _, a := range args {
				v, err := strconv.Atoi(a)
				if err != nil {
					return nil, fmt.Errorf("workload: line %d: %v", line, err)
				}
				in.InitialCache = append(in.InitialCache, core.BlockID(v))
			}
		case "seq":
			for _, a := range args {
				v, err := strconv.Atoi(a)
				if err != nil {
					return nil, fmt.Errorf("workload: line %d: %v", line, err)
				}
				in.Seq = append(in.Seq, core.BlockID(v))
			}
		default:
			return nil, fmt.Errorf("workload: line %d: unknown directive %q", line, key)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawHeader {
		return nil, fmt.Errorf("workload: missing %q header", formatHeader)
	}
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("workload: parsed instance is invalid: %w", err)
	}
	return in, nil
}

// ParseString parses an instance from a string.
func ParseString(s string) (*core.Instance, error) {
	return Parse(strings.NewReader(s))
}

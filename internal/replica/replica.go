// Package replica implements process replicas / N-variant systems for
// security (Cox, Evans et al.; refined by Bruschi et al.): the same
// program executes in N automatically generated variants with disjoint
// address-space partitions and variant-specific instruction tags. All
// variants receive the same input and a monitor compares their behavior.
//
// Benign requests use relative addresses and properly re-tagged program
// code, so all variants behave identically. An attack, by contrast, must
// embed concrete artifacts in its payload:
//
//   - a memory attack referencing an absolute address is valid in at most
//     one variant's partition and traps in the others;
//   - injected code carries at most one variant's instruction tag and
//     traps in all variants whose tag differs.
//
// Either way the variants diverge, and the monitor detects the attack
// without any secret: the framework is "secretless" because safety rests
// on the impossibility of a single payload satisfying all variants at
// once.
//
// Taxonomy position (paper Table 2): deliberate intention, environment
// redundancy (with code redundancy for tagging), reactive implicit
// adjudicator, malicious faults.
package replica

import (
	"errors"
	"fmt"
)

// Sentinel errors reported by replicas and the monitor.
var (
	// ErrSegfault reports an access outside the replica's partition.
	ErrSegfault = errors.New("replica: segmentation fault")
	// ErrIllegalInstruction reports executing code whose tag does not
	// match the replica's tag.
	ErrIllegalInstruction = errors.New("replica: illegal instruction (tag mismatch)")
	// ErrAttackDetected reports behavioral divergence among replicas.
	ErrAttackDetected = errors.New("replica: attack detected (replica divergence)")
)

// OpKind is the kind of operation a request performs.
type OpKind int

const (
	// OpRead reads one word of memory.
	OpRead OpKind = iota + 1
	// OpWrite writes one word of memory.
	OpWrite
	// OpExec executes a code sequence.
	OpExec
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpExec:
		return "exec"
	default:
		return "unknown"
	}
}

// Instruction is one unit of executable code. Legitimate program code is
// re-tagged per variant by the loader; injected code carries whatever
// fixed tag the attacker guessed.
type Instruction struct {
	// Tag is the variant tag stamped on the instruction. The zero tag
	// never matches a variant.
	Tag byte
	// Op is the mnemonic (uninterpreted by the simulation).
	Op string
}

// Request is one input delivered identically to all replicas.
type Request struct {
	// Op selects the operation.
	Op OpKind
	// Addr is the target address of OpRead/OpWrite. When Absolute is
	// false it is an offset within the replica's partition (the benign
	// case); when true it is an absolute address (the exploit case).
	Addr uint64
	// Absolute marks Addr as an absolute address.
	Absolute bool
	// Value is the word written by OpWrite.
	Value uint64
	// Code is the sequence executed by OpExec. When Trusted is true the
	// loader re-tags each instruction for the executing variant
	// (legitimate program code); untrusted code keeps its embedded tags
	// (injected payloads).
	Code []Instruction
	// Trusted marks Code as legitimate, re-taggable program code.
	Trusted bool
}

// Process is one replica: a simulated process with its own address-space
// partition and instruction tag.
type Process struct {
	name string
	base uint64
	size uint64
	tag  byte
	mem  map[uint64]uint64
}

// NewProcess creates a replica with partition [base, base+size) and the
// given instruction tag.
func NewProcess(name string, base, size uint64, tag byte) (*Process, error) {
	if size == 0 {
		return nil, errors.New("replica: zero partition size")
	}
	if tag == 0 {
		return nil, errors.New("replica: zero tag is reserved")
	}
	return &Process{
		name: name,
		base: base,
		size: size,
		tag:  tag,
		mem:  make(map[uint64]uint64),
	}, nil
}

// Name returns the replica's name.
func (p *Process) Name() string { return p.name }

// Base returns the partition base address.
func (p *Process) Base() uint64 { return p.base }

// Tag returns the replica's instruction tag.
func (p *Process) Tag() byte { return p.tag }

// resolve maps a request address into the replica's partition, trapping
// on out-of-partition accesses.
func (p *Process) resolve(addr uint64, absolute bool) (uint64, error) {
	if absolute {
		if addr < p.base || addr >= p.base+p.size {
			return 0, fmt.Errorf("absolute address %#x outside partition [%#x, %#x): %w",
				addr, p.base, p.base+p.size, ErrSegfault)
		}
		return addr, nil
	}
	if addr >= p.size {
		return 0, fmt.Errorf("offset %#x beyond partition size %#x: %w", addr, p.size, ErrSegfault)
	}
	return p.base + addr, nil
}

// Handle executes one request and returns the replica's observable
// response (the read/written value, or the number of executed
// instructions for OpExec).
func (p *Process) Handle(req Request) (uint64, error) {
	switch req.Op {
	case OpRead:
		a, err := p.resolve(req.Addr, req.Absolute)
		if err != nil {
			return 0, err
		}
		return p.mem[a], nil
	case OpWrite:
		a, err := p.resolve(req.Addr, req.Absolute)
		if err != nil {
			return 0, err
		}
		p.mem[a] = req.Value
		return req.Value, nil
	case OpExec:
		for i, instr := range req.Code {
			tag := instr.Tag
			if req.Trusted {
				// The loader re-tags legitimate code per variant.
				tag = p.tag
			}
			if tag != p.tag {
				return 0, fmt.Errorf("instruction %d (%s) tagged %#x, variant requires %#x: %w",
					i, instr.Op, instr.Tag, p.tag, ErrIllegalInstruction)
			}
		}
		return uint64(len(req.Code)), nil
	default:
		return 0, fmt.Errorf("replica: unknown op %d", req.Op)
	}
}

// System is the monitor plus N replicas with disjoint partitions and
// distinct tags.
type System struct {
	procs []*Process
}

// NewSystem creates n replicas, each with a partition of the given size.
// Partitions are disjoint by construction (replica i occupies
// [(i+1)<<32, (i+1)<<32 + size)) and tags are 1..n.
func NewSystem(n int, size uint64) (*System, error) {
	if n < 2 {
		return nil, errors.New("replica: need at least 2 variants for detection")
	}
	if n > 255 {
		return nil, errors.New("replica: at most 255 variants (one byte of tag space)")
	}
	procs := make([]*Process, n)
	for i := range procs {
		p, err := NewProcess(fmt.Sprintf("variant-%d", i+1), uint64(i+1)<<32, size, byte(i+1))
		if err != nil {
			return nil, err
		}
		procs[i] = p
	}
	return &System{procs: procs}, nil
}

// N returns the number of replicas.
func (s *System) N() int { return len(s.procs) }

// Process returns replica i (for constructing targeted attack payloads in
// experiments).
func (s *System) Process(i int) *Process { return s.procs[i] }

// Execute delivers the request to every replica and compares behavior.
// If all replicas agree (same value, or same error class) the common
// outcome is returned; any divergence is reported as ErrAttackDetected.
func (s *System) Execute(req Request) (uint64, error) {
	values := make([]uint64, len(s.procs))
	errs := make([]error, len(s.procs))
	for i, p := range s.procs {
		values[i], errs[i] = p.Handle(req)
	}

	diverged := false
	for i := 1; i < len(s.procs); i++ {
		if (errs[i] == nil) != (errs[0] == nil) {
			diverged = true
			break
		}
		if errs[i] == nil && values[i] != values[0] {
			diverged = true
			break
		}
		if errs[i] != nil && !sameErrClass(errs[i], errs[0]) {
			diverged = true
			break
		}
	}
	if diverged {
		return 0, fmt.Errorf("replica responses diverged: %w", ErrAttackDetected)
	}
	if errs[0] != nil {
		// A unanimous trap is still suspicious for untrusted code (the
		// attacker guessed no valid tag at all), but it cannot be a
		// successful attack; report it as the common error.
		return 0, errs[0]
	}
	return values[0], nil
}

// sameErrClass groups errors by sentinel so that unanimous traps of the
// same kind do not count as divergence.
func sameErrClass(a, b error) bool {
	switch {
	case errors.Is(a, ErrSegfault):
		return errors.Is(b, ErrSegfault)
	case errors.Is(a, ErrIllegalInstruction):
		return errors.Is(b, ErrIllegalInstruction)
	default:
		return errors.Is(b, a) || errors.Is(a, b) || a.Error() == b.Error()
	}
}

package ops

import (
	"fmt"
	"strconv"
)

// Factory constructs an operator from string arguments (the Mortar Stream
// Language compiler resolves operator calls through this registry).
type Factory func(args []string) (Operator, error)

var registry = map[string]Factory{}

// Register installs a factory; later registrations for a name replace
// earlier ones so applications can override built-ins.
func Register(name string, f Factory) { registry[name] = f }

// New builds a named operator. Arguments are positional strings from MSL.
func New(name string, args []string) (Operator, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("ops: unknown operator %q", name)
	}
	return f(args)
}

// Known reports whether an operator name is registered.
func Known(name string) bool {
	_, ok := registry[name]
	return ok
}

func intArg(args []string, i, dflt int) (int, error) {
	if i >= len(args) {
		return dflt, nil
	}
	v, err := strconv.Atoi(args[i])
	if err != nil {
		return 0, fmt.Errorf("ops: argument %d: %v", i, err)
	}
	return v, nil
}

func floatArg(args []string, i int, dflt float64) (float64, error) {
	if i >= len(args) {
		return dflt, nil
	}
	v, err := strconv.ParseFloat(args[i], 64)
	if err != nil {
		return 0, fmt.Errorf("ops: argument %d: %v", i, err)
	}
	return v, nil
}

func init() {
	Register("sum", func(args []string) (Operator, error) {
		f, err := intArg(args, 0, 0)
		return Sum{Field: f}, err
	})
	Register("count", func(args []string) (Operator, error) {
		return Count{}, nil
	})
	Register("min", func(args []string) (Operator, error) {
		f, err := intArg(args, 0, 0)
		return Extremum{Field: f}, err
	})
	Register("max", func(args []string) (Operator, error) {
		f, err := intArg(args, 0, 0)
		return Extremum{Field: f, Max: true}, err
	})
	Register("avg", func(args []string) (Operator, error) {
		f, err := intArg(args, 0, 0)
		return Avg{Field: f}, err
	})
	Register("topk", func(args []string) (Operator, error) {
		k, err := intArg(args, 0, 3)
		if err != nil {
			return nil, err
		}
		f, err := intArg(args, 1, 0)
		return TopK{K: k, Field: f}, err
	})
	Register("union", func(args []string) (Operator, error) {
		return Union{}, nil
	})
	Register("entropy", func(args []string) (Operator, error) {
		return Entropy{}, nil
	})
	Register("bloom", func(args []string) (Operator, error) {
		bits, err := intArg(args, 0, 1024)
		if err != nil {
			return nil, err
		}
		hashes, err := intArg(args, 1, 3)
		if err != nil {
			return nil, err
		}
		if bits < 1 {
			return nil, fmt.Errorf("ops: bloom bits %d must be at least 1", bits)
		}
		return Bloom{Bits: bits, Hashes: hashes}, nil
	})
	Register("distinct", func(args []string) (Operator, error) {
		m, err := intArg(args, 0, 256)
		if err != nil {
			return nil, err
		}
		if m < 16 || m&(m-1) != 0 {
			return nil, fmt.Errorf("ops: distinct registers %d must be a power of two >= 16", m)
		}
		return Distinct{Registers: m}, nil
	})
	Register("quantile", func(args []string) (Operator, error) {
		q, err := floatArg(args, 0, 0.5)
		if err != nil {
			return nil, err
		}
		cap_, err := intArg(args, 1, 128)
		if err != nil {
			return nil, err
		}
		return Quantile{Q: q, Cap: cap_}, nil
	})
	Register("trilat", func(args []string) (Operator, error) {
		return Trilat{}, nil
	})
}

package contract

import (
	"bytes"
	"fmt"
	"sort"

	"waitornot/internal/chain"
	"waitornot/internal/keys"
)

// Registry is the participant registry contract: peers bind their
// account address to a human-readable client name. Registration is
// permissionless (the chain is), but first-come-first-served per
// address; the registry gives experiments a canonical address -> name
// mapping and the audit tooling a directory of identities.
type Registry struct{}

var _ Contract = (*Registry)(nil)

// Storage keys embed raw address bytes: "participant/" + addr[20].
const regPrefix = "participant/"

// Call implements Contract. Methods:
//
//	register(name) — bind the sender's address to name.
func (r *Registry) Call(ctx *Ctx, call *Call) error {
	args := call.Args
	switch call.Method {
	case "register":
		if len(args) != 1 || len(args[0]) == 0 || len(args[0]) > 64 {
			return fmt.Errorf("%w: register(name)", ErrBadArgs)
		}
		key := regPrefix + string(ctx.Tx.From[:])
		if ctx.Load(key) != nil {
			return fmt.Errorf("%w: address already registered", ErrBadArgs)
		}
		ctx.Store(key, args[0])
		ctx.Emit("Registered", append(append([]byte{}, ctx.Tx.From[:]...), args[0]...))
		return nil
	default:
		return fmt.Errorf("%w: %q", ErrUnknownMethod, call.Method)
	}
}

// RegisterCallData builds the payload for register(name).
func RegisterCallData(name string) []byte { return EncodeCall("register", []byte(name)) }

// Registration is one registry entry.
type Registration struct {
	Addr keys.Address
	Name string
}

// Participants reads all registrations from a state snapshot (an
// off-chain view call), sorted by name then address.
func Participants(st *chain.State) []Registration {
	var out []Registration
	for _, key := range st.Keys(RegistryAddress) {
		if len(key) != len(regPrefix)+keys.AddressLen || key[:len(regPrefix)] != regPrefix {
			continue
		}
		var addr keys.Address
		copy(addr[:], key[len(regPrefix):])
		out = append(out, Registration{Addr: addr, Name: string(st.Get(RegistryAddress, key))})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return bytes.Compare(out[i].Addr[:], out[j].Addr[:]) < 0
	})
	return out
}

// NameOf resolves an address to its registered name ("" if absent).
func NameOf(st *chain.State, addr keys.Address) string {
	return string(st.Get(RegistryAddress, regPrefix+string(addr[:])))
}

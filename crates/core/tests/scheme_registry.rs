//! Properties of the scheme-naming layer: the builtin registry holds
//! exactly the five scheme ids, a named [`SchemeSpec`] round-trips its id
//! and resolves to the scheme of that name, and arbitrary strings never
//! alias a registered scheme.

use ace_core::{SchemeRegistry, SchemeSpec};
use proptest::prelude::*;

/// The builtin registry's scheme ids, in registration order.
const NAMED: [&str; 5] = ["baseline", "hotspot", "bbv", "positional", "pdm"];

#[test]
fn every_named_scheme_round_trips_and_resolves() {
    let registry = SchemeRegistry::builtin();
    assert_eq!(registry.names().collect::<Vec<_>>(), NAMED);

    for name in NAMED {
        let resolved = registry
            .get(name)
            .unwrap_or_else(|| panic!("{name} not registered"));
        assert_eq!(resolved.name(), name);

        // A named spec carries the id and resolves against the builtin
        // registry to the scheme of that name.
        let spec = SchemeSpec::from(name);
        assert_eq!(spec.id(), name);
        assert_eq!(spec.resolve(&registry).unwrap().name(), name);
    }
}

/// Candidate scheme ids: half the cases draw a genuine name (possibly
/// mutated by one appended letter), the rest a random lowercase string —
/// so the properties exercise both the registered and unregistered sides.
fn arb_name() -> impl Strategy<Value = String> {
    (
        0u64..10,
        prop::collection::vec(97u8..123, 0..13),
        prop::option::of(97u8..123),
    )
        .prop_map(|(pick, bytes, tail)| {
            if let Some(name) = NAMED.get(pick as usize) {
                let mut name = name.to_string();
                if let Some(extra) = tail {
                    name.push(extra as char);
                }
                name
            } else {
                String::from_utf8(bytes).expect("ascii lowercase")
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Resolution is exact: a named spec resolves iff its id is one of
    /// the five names, and then to the scheme carrying that id.
    #[test]
    fn parse_is_exact_and_round_trips(name in arb_name()) {
        let registry = SchemeRegistry::builtin();
        let spec = SchemeSpec::from(name.as_str());
        prop_assert_eq!(spec.id(), name.clone());
        match spec.resolve(&registry) {
            Some(scheme) => {
                prop_assert_eq!(scheme.name(), name.as_str());
                prop_assert!(NAMED.contains(&name.as_str()));
            }
            None => prop_assert!(!NAMED.contains(&name.as_str())),
        }
    }

    /// Registry lookup agrees with spec resolution for arbitrary ids.
    #[test]
    fn builtin_lookup_matches_spec_resolution(name in arb_name()) {
        let registry = SchemeRegistry::builtin();
        prop_assert_eq!(
            registry.get(&name).is_some(),
            SchemeSpec::named(name.clone()).resolve(&registry).is_some()
        );
    }
}

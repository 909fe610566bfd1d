//! Shared parse-warn-fallback handling for the `GS_*` environment knobs.
//!
//! The workspace's runtime knobs — `GS_SIMD` (kernel tier,
//! [`crate::simd`]), `GS_NO_PIN` (worker pinning opt-out, read by
//! `gs-runtime`'s `StreamConfig::new`) and `GS_SPEEDUP` (campaign scale,
//! `gs-sim`) — must all behave the same way when misused: **warn on
//! stderr and fall back to a safe value**, never silently ignore a typo (a
//! mistyped `GS_SIMD=of` must not quietly re-enable vector code, a
//! mistyped `GS_NO_PIN=flase` must not quietly re-enable pinning).
//!
//! This module lives in `gs-linalg` because it is the lowest layer that
//! reads a knob (`GS_SIMD`); every crate that reads one depends on
//! `gs-linalg`, so one helper serves every knob without a dependency
//! cycle.

/// Reads and parses the environment knob `name` with one shared policy:
///
/// * **unset** → `default` (the knob's do-nothing value),
/// * **set and recognized** → whatever `parse` returns for the trimmed,
///   ASCII-lowercased value,
/// * **set but unrecognized** → a warning on stderr naming the knob, the
///   offending value, the `expected` grammar and the `fallback_desc`
///   action taken — then `fallback` (the knob's *safe* value, which is
///   not necessarily its default).
pub fn env_knob<T>(
    name: &str,
    expected: &str,
    fallback_desc: &str,
    default: T,
    fallback: T,
    parse: impl FnOnce(&str) -> Option<T>,
) -> T {
    let Ok(raw) = std::env::var(name) else {
        return default;
    };
    match parse(&raw.trim().to_ascii_lowercase()) {
        Some(v) => v,
        None => {
            eprintln!(
                "geosphere: unrecognized {name} value {raw:?} (expected {expected}); \
                 {fallback_desc}"
            );
            fallback
        }
    }
}

/// Boolean knob under the shared policy: unset → `false`; empty or
/// `1`/`true`/`yes`/`on` → `true`; `0`/`false`/`no`/`off` → `false`;
/// anything else warns and counts as **set** (`true`) — the user clearly
/// reached for the knob, and for opt-outs like `GS_NO_PIN` honouring the
/// attempt is the safe reading.
pub fn env_flag(name: &str) -> bool {
    env_knob(
        name,
        "1|true|yes|on|0|false|no|off (or empty)",
        "treating the flag as set",
        false,
        true,
        |v| match v {
            "" | "1" | "true" | "yes" | "on" => Some(true),
            "0" | "false" | "no" | "off" => Some(false),
            _ => None,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    // Env mutation is process-global; each test uses its own variable name
    // so parallel test threads cannot race on a shared knob.

    #[test]
    fn unset_yields_default() {
        assert_eq!(env_knob("GS_TEST_KNOB_UNSET", "x", "d", 7, 9, |_| Some(1)), 7);
        assert!(!env_flag("GS_TEST_FLAG_UNSET"));
    }

    #[test]
    fn recognized_value_parses() {
        std::env::set_var("GS_TEST_KNOB_OK", "  Fast ");
        let v =
            env_knob("GS_TEST_KNOB_OK", "fast|slow", "d", 0, -1, |v| (v == "fast").then_some(42));
        assert_eq!(v, 42, "value is trimmed and lowercased before parsing");
    }

    #[test]
    fn unrecognized_value_falls_back() {
        std::env::set_var("GS_TEST_KNOB_BAD", "garbage");
        let v =
            env_knob("GS_TEST_KNOB_BAD", "fast|slow", "d", 0, -1, |v| (v == "fast").then_some(42));
        assert_eq!(v, -1, "unrecognized values take the fallback, not the default");
    }

    #[test]
    fn flag_grammar() {
        for (raw, want) in [
            ("", true),
            ("1", true),
            ("true", true),
            ("YES", true),
            ("on", true),
            ("0", false),
            ("false", false),
            ("no", false),
            ("OFF", false),
            ("flase", true), // typo: warn, but honour the attempt to set it
        ] {
            std::env::set_var("GS_TEST_FLAG_GRAMMAR", raw);
            assert_eq!(env_flag("GS_TEST_FLAG_GRAMMAR"), want, "raw {raw:?}");
        }
        std::env::remove_var("GS_TEST_FLAG_GRAMMAR");
    }
}

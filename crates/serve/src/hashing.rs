//! Content addressing for the serve caches.
//!
//! The module cache is keyed by *what the compiler would see*, not by the
//! request text: PsimC sources that differ only in comments or whitespace
//! canonicalize to the same token stream and therefore share one compiled
//! module. The compile *configuration* — SPMD mode, verification mode,
//! fault-injection descriptor — is folded into the key because it changes
//! the compiled output; nothing else is. Three keys build on each other:
//!
//! * [`module_key`] — compile inputs; keys the module cache.
//! * [`plan_key`] — module key + costing target; keys the plan cache.
//! * [`request_key`] — module key + engine + target; leads the
//!   [`batch_key`]. The engine only picks the executor.
//!
//! Hashing is FNV-1a 64, the same construction the rest of the workspace
//! uses for deterministic seeds. Collisions are theoretically possible but
//! irrelevant in practice for a cache whose worst failure mode would
//! surface instantly in the byte-identity gates (`servebench --check`
//! compares every served response against an uncached single-shot run).

/// FNV-1a 64-bit over a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Canonicalizes a PsimC source for content addressing: strips `//`
/// line comments (PsimC has no string literals, so the scan is textual)
/// and collapses every whitespace run to a single space. Token boundaries
/// are preserved — `a + b` and `a  +  b` canonicalize identically, while
/// `a+b` stays distinct (it already lexes the same, but the cache does not
/// need to know that).
pub fn canonicalize(src: &str) -> String {
    let mut out = String::with_capacity(src.len());
    for line in src.lines() {
        let code = match line.find("//") {
            Some(i) => &line[..i],
            None => line,
        };
        for tok in code.split_whitespace() {
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(tok);
        }
    }
    out
}

/// Content hash of a canonicalized source.
pub fn source_hash(src: &str) -> u64 {
    fnv1a(canonicalize(src).as_bytes())
}

/// Chains key parts onto a hash, with a separator so ("ab","c") and
/// ("a","bc") differ.
fn chain<S: AsRef<str>>(mut h: u64, parts: impl IntoIterator<Item = S>) -> u64 {
    for part in parts {
        h = fnv1a(format!("{h:016x}\x1f{}", part.as_ref()).as_bytes());
    }
    h
}

/// Module-cache key: source content hash chained with every compile-time
/// knob that changes the compiled output. Engine and target are not
/// inputs to the compiler (the `target-contract` CI job checks that the
/// module text is the same at every vector length), so one compiled
/// module serves every engine × target. Also [`CompiledModule::key`].
///
/// [`CompiledModule::key`]: crate::cache::CompiledModule::key
pub fn module_key(source: &str, mode: &str, verify: &str, inject: &str) -> u64 {
    chain(source_hash(source), [mode, verify, inject])
}

/// Plan-cache key: the `module_id` handed to [`psir::PlanCache`]. A
/// `FramePlan` memoizes instruction costs priced for one target, so plans
/// are keyed by module *and* target. The engine is absent: the native
/// lowering rides on the shared `FramePlan`, so every engine executes the
/// same plan.
pub fn plan_key(module_key: u64, target: &str) -> u64 {
    chain(module_key, [target])
}

/// Request key: [`module_key`] chained with the engine and target. It
/// keys no cache; it leads the [`batch_key`], so every batch runs on one
/// engine and one target.
pub fn request_key(
    source: &str,
    mode: &str,
    verify: &str,
    inject: &str,
    engine: &str,
    target: &str,
) -> u64 {
    chain(module_key(source, mode, verify, inject), [engine, target])
}

/// Batch-coalescing key: the [`request_key`] extended with everything
/// two concurrent requests must share to be admitted into one batch —
/// the entry function (one plan per function), the gang configuration
/// `n`, and the request-side budget triple. Request key first: requests
/// in one batch share a compiled module, an engine, a target, its plans,
/// and one interpreter arena by construction. Budgets are *compatible*,
/// not merely present: each member still gets its own
/// [`RunBudget`](crate::RunBudget) and token at execution time, the key
/// only guarantees the members agree on what those budgets are.
pub fn batch_key(
    request_key: u64,
    entry: &str,
    n: u64,
    deadline_ms: u64,
    max_steps: u64,
    max_mem_bytes: u64,
) -> u64 {
    chain(
        request_key,
        [
            entry.to_string(),
            n.to_string(),
            deadline_ms.to_string(),
            max_steps.to_string(),
            max_mem_bytes.to_string(),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_whitespace_do_not_change_the_hash() {
        let a = "void f(i64 n) {\n  psim gang(8) threads(n) { }\n}\n";
        let b = "// header comment\nvoid f(i64 n)   {\n\tpsim gang(8)\n  threads(n) { } // tail\n}";
        assert_eq!(source_hash(a), source_hash(b));
        assert_eq!(canonicalize(a), canonicalize(b));
    }

    #[test]
    fn token_changes_change_the_hash() {
        assert_ne!(source_hash("a + b"), source_hash("a - b"));
        // Collapsing whitespace must not merge tokens.
        assert_ne!(canonicalize("a b"), canonicalize("ab"));
    }

    #[test]
    fn compile_config_is_part_of_the_module_key() {
        let src = "void f() { }";
        let base = module_key(src, "parsimony", "fallback", "");
        assert_eq!(base, module_key(src, "parsimony", "fallback", ""));
        assert_ne!(base, module_key(src, "gangsync", "fallback", ""));
        assert_ne!(base, module_key(src, "parsimony", "strict", ""));
        assert_ne!(base, module_key(src, "parsimony", "fallback", "shape:1"));
        assert_ne!(
            base,
            module_key("void g() { }", "parsimony", "fallback", "")
        );
    }

    #[test]
    fn plan_key_separates_targets_only() {
        let m = module_key("void f() { }", "parsimony", "fallback", "");
        let avx512 = plan_key(m, "x86-avx512");
        assert_eq!(avx512, plan_key(m, "x86-avx512"));
        // Plans memoize target-priced costs: every target, and every SVE
        // vector length, gets its own plans.
        assert_ne!(avx512, plan_key(m, "x86-avx2"));
        assert_ne!(plan_key(m, "sve-vla:512"), plan_key(m, "sve-vla:256"));
        assert_ne!(avx512, plan_key(m.wrapping_add(1), "x86-avx512"));
        // A plan id is never mistaken for the module id it extends.
        assert_ne!(avx512, m);
    }

    #[test]
    fn request_key_extends_the_module_key_with_engine_and_target() {
        let src = "void f() { }";
        let m = module_key(src, "parsimony", "fallback", "");
        let base = request_key(src, "parsimony", "fallback", "", "fast", "x86-avx512");
        assert_eq!(base, chain(m, ["fast", "x86-avx512"]));
        assert_ne!(
            base,
            request_key(src, "parsimony", "fallback", "", "native", "x86-avx512")
        );
        assert_ne!(
            base,
            request_key(src, "parsimony", "fallback", "", "fast", "sve-vla:512")
        );
        // The key the batching tier and the benchmark depend on is pinned:
        // the same FNV-1a chain over every part, in this order.
        let mut h = source_hash(src);
        for part in ["parsimony", "fallback", "", "fast", "x86-avx512"] {
            h = fnv1a(format!("{h:016x}\x1f{part}").as_bytes());
        }
        assert_eq!(base, h);
    }

    #[test]
    fn key_parts_are_separated() {
        let src = "void f() { }";
        assert_ne!(
            request_key(src, "ab", "c", "", "fast", "x86-avx512"),
            request_key(src, "a", "bc", "", "fast", "x86-avx512")
        );
    }

    #[test]
    fn batch_key_separates_entry_gang_and_budgets() {
        let m = request_key(
            "void f() { }",
            "parsimony",
            "fallback",
            "",
            "fast",
            "x86-avx512",
        );
        let base = batch_key(m, "main", 1024, 0, 0, 0);
        assert_eq!(base, batch_key(m, "main", 1024, 0, 0, 0));
        assert_ne!(base, batch_key(m, "other", 1024, 0, 0, 0));
        assert_ne!(base, batch_key(m, "main", 2048, 0, 0, 0));
        assert_ne!(base, batch_key(m, "main", 1024, 50, 0, 0));
        assert_ne!(base, batch_key(m, "main", 1024, 0, 1000, 0));
        assert_ne!(base, batch_key(m, "main", 1024, 0, 0, 4096));
        assert_ne!(base, batch_key(m.wrapping_add(1), "main", 1024, 0, 0, 0));
    }
}

//! Fixture: banned tokens inside raw/byte string literals must never fire,
//! the masker must resynchronize after each literal, and raw-string
//! `.expect(r"...")` messages are held to the same invariant-citing bar as
//! plain ones.

pub fn banned_words_inside_raw_strings() -> usize {
    let a = r"Instant::now() HashMap thread_rng";
    let b = r#"panic!("SystemTime UNIX_EPOCH") println!"#;
    let c = r##"nested "# quote" HashSet partial_cmp OsRng"##;
    let d = br#"from_entropy getrandom"#;
    let e = b"dbg! eprintln!";
    a.len() + b.len() + c.len() + d.len() + e.len()
}

pub fn code_after_raw_strings_is_still_scanned() {
    let _ = r"harmless";
    // Both HashMap mentions below must fire: the masker resynchronized.
    let m: HashMap<u32, u32> = HashMap::new();
    let _ = m;
}

pub struct EventQueue;

impl EventQueue {
    /// A declared hot entry point, so R7 checks its expect messages.
    pub fn pop(&mut self, v: Option<u32>) -> u32 {
        // Short raw-string message: fires on a hot path.
        let a = v.expect(r"no");
        // Invariant-citing raw-string message: sanctioned.
        let b = v.expect(r#"caller checked is_some() before dispatch"#);
        a + b
    }
}

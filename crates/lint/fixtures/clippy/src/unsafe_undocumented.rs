//@ expect: clippy::undocumented_unsafe_blocks@8

#[expect(unsafe_code, reason = "an audited site")]
pub fn read(x: &u8) -> u8 {
    let p: *const u8 = x;
    // A comment that is not a safety justification does not count:
    // this dereference is probably fine.
    unsafe { *p }
}

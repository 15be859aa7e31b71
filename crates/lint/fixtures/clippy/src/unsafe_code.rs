//@ expect: unsafe_code@7

pub fn read(x: &u8) -> u8 {
    let p: *const u8 = x;
    // SAFETY: a justification does not excuse `unsafe` outside the
    // audited sites; those carry `#[expect(unsafe_code, reason = ...)]`.
    unsafe { *p }
}

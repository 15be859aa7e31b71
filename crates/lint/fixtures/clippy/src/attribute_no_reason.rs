//@ expect: clippy::allow_attributes@6
//@ expect: clippy::allow_attributes_without_reason@6
//@ expect: clippy::allow_attributes_without_reason@11
//@ expect: unknown_lints@16

#[allow(clippy::unwrap_used)]
pub fn f(x: Option<u32>) -> u32 {
    x.unwrap()
}

#[expect(clippy::unwrap_used)]
pub fn g(x: Option<u32>) -> u32 {
    x.unwrap()
}

#[expect(clippy::no_such_lint, reason = "the lint name must exist")]
pub fn h() -> u32 {
    3
}

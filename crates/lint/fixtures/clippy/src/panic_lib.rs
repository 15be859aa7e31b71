//@ expect: clippy::unwrap_used@9
//@ expect: clippy::expect_used@10
//@ expect: clippy::panic@12
//@ expect: clippy::unreachable@14
//@ expect: clippy::todo@17
//@ expect: clippy::unimplemented@18

pub fn first(xs: &[u32], which: u8) -> u32 {
    let a = *xs.first().unwrap();
    let b = *xs.last().expect("xs is never empty");
    match which {
        0 => panic!("library code fails through Result"),
        1 => a + b,
        _ => unreachable!(),
    }
}
pub fn later() -> u32 { todo!() }
pub fn never() -> u32 { unimplemented!() }

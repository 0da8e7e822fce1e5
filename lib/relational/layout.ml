type mode = Columnar

let mode () = Columnar
let to_string Columnar = "columnar"

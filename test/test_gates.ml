(* bench/main.exe exits with Exp_common.exit_code of every gate the
   selected experiments report. *)

module Exp_common = Secrep_experiments.Exp_common

let gate ?applies ok = Exp_common.gate ?applies "g" ~value:"v" ~threshold:"t" ok

let test_exit_code () =
  let check name expected gates =
    Alcotest.(check int) name expected (Exp_common.exit_code gates)
  in
  check "passing gates pass" 0 [ gate true; gate true; gate ~applies:false true ];
  check "an applicable failing gate fails the run" 1 [ gate true; gate false ];
  check "a failing gate that does not apply does not" 0
    [ gate true; gate ~applies:false false ]

let () =
  Alcotest.run "gates"
    [ ("exp_common", [ Alcotest.test_case "exit decision" `Quick test_exit_code ]) ]

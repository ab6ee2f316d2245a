(* CLI transcript: the stochastic subcommands' output, byte for byte.

   cli_transcript.expected holds one section per command: the command
   line, its stdout with the timing line ("wall ...") and written-file
   lines ("wrote ...") masked, its stderr when there is any, and its exit
   code.  The simulate, overlay and coded sections were captured before
   those subcommands shared one backend table and one set of run modes;
   the trailing sections pin invalid model parameters as usage errors
   (exit 2).  Regenerate a section by running the command and masking
   the same lines. *)

let ( / ) = Filename.concat
let here = Filename.dirname Sys.executable_name
let p2psim = here / Filename.parent_dir_name / "bin" / "p2psim.exe"

let read_file file = In_channel.with_open_bin file In_channel.input_all

let mask text =
  String.split_on_char '\n' text
  |> List.map (fun line ->
         if String.starts_with ~prefix:"wall " line then "wall <masked>"
         else if String.starts_with ~prefix:"wrote " line then "wrote <masked>"
         else line)
  |> String.concat "\n"

(* Run p2psim with [args]; its transcript section. *)
let transcript args =
  let out = Filename.temp_file "p2psim" ".out" and err = Filename.temp_file "p2psim" ".err" in
  let fd f = Unix.openfile f [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let fd_out = fd out and fd_err = fd err in
  let pid =
    Unix.create_process p2psim (Array.of_list (p2psim :: args)) Unix.stdin fd_out fd_err
  in
  Unix.close fd_out;
  Unix.close fd_err;
  let code =
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED s | Unix.WSTOPPED s -> 1000 + s
  in
  let stdout = read_file out and stderr = read_file err in
  Sys.remove out;
  Sys.remove err;
  Printf.sprintf "$ p2psim %s\n%s%s[exit %d]\n\n" (String.concat " " args) (mask stdout)
    (if stderr = "" then "" else "[stderr]\n" ^ stderr)
    code

(* The expected sections, split at each "$ p2psim" line. *)
let sections =
  let lines = String.split_on_char '\n' Cli_expected.text in
  let flush acc cur = match cur with [] -> acc | _ -> String.concat "\n" (List.rev cur) :: acc in
  let rec go acc cur = function
    | [] -> List.rev (flush acc cur)
    | line :: rest when String.starts_with ~prefix:"$ p2psim " line ->
        go (flush acc cur) [ line ] rest
    | line :: rest -> go acc (line :: cur) rest
  in
  go [] [] lines

let case section =
  let command = List.hd (String.split_on_char '\n' section) in
  let args =
    String.sub command 9 (String.length command - 9)
    |> String.split_on_char ' '
    |> List.filter (( <> ) "")
  in
  (* Sections end in blank lines, which the split does not keep. *)
  let rec chomp s =
    if String.ends_with ~suffix:"\n" s then chomp (String.sub s 0 (String.length s - 1)) else s
  in
  Alcotest.test_case command `Quick (fun () ->
      Alcotest.(check string) command (chomp section) (chomp (transcript args)))

(* hetero's simulation moved onto Sim_agent, so its numbers are not the
   parent's; its shape is pinned instead: the heuristic block, the agent
   report and the per-class table. *)
let test_hetero_shape () =
  let out = transcript [ "hetero"; "-t"; "300"; "-c"; "fast=2,inf,0.3"; "-c"; "slow=1,0.5,0.2" ] in
  List.iter
    (fun needle ->
      let found =
        let n = String.length needle and m = String.length out in
        let rec at i = i + n <= m && (String.sub out i n = needle || at (i + 1)) in
        at 0
      in
      Alcotest.(check bool) needle true found)
    [ "heuristic verdict"; "m_bar (seed branching) : 0.8"; "heuristic threshold";
      "lambda_total"; "empirical verdict:"; "--- per class ---"; "class  mean N  mean sojourn";
      "\nfast "; "\nslow "; "[exit 0]" ]

let () =
  Alcotest.run "cli"
    [
      ("transcript", List.map case sections);
      ("hetero", [ Alcotest.test_case "shape" `Quick test_hetero_shape ]);
    ]

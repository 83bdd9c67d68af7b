(* Numerical correctness, outside the timed window: one scaled instance per
   chain family (gemm, attention, deep) is tuned, and its winner run by the
   tile-level interpreter must match the reference operators.  The scaling
   follows Exp_verify's; full-size instances take seconds to minutes to
   interpret. *)

open Common

let instances rng =
  let g = Rng.pick_list rng Configs.gemm_chains in
  let s = Rng.pick_list rng Configs.attentions in
  let scale d = min d 96 in
  [ ( "gemm " ^ g.gname,
      Mcf_ir.Chain.gemm_chain ~batch:(min g.gbatch 2) ~m:(scale g.gm)
        ~n:(scale g.gn) ~k:(scale g.gk) ~h:(scale g.gh) (),
      None );
    ( "attention " ^ s.sname,
      Mcf_ir.Chain.attention ~heads:(min s.heads 2) ~m:(scale s.sm)
        ~n:(scale s.sn) ~k:(min s.sk 48) ~h:(min s.sh 48) (),
      None );
    ( "deep D7",
      Configs.deep_chain { d7_config with dm = 96; ddim = 48 },
      Some 512 ) ]

let random_inputs rng (chain : Mcf_ir.Chain.t) =
  List.map
    (fun (ts : Mcf_ir.Chain.tensor_spec) ->
      let dims = List.map (fun (a : Mcf_ir.Axis.t) -> a.size) ts.taxes in
      let shape =
        Array.of_list (if chain.batch > 1 then chain.batch :: dims else dims)
      in
      (ts.tname, Mcf_tensor.Tensor.random rng shape))
    (Mcf_ir.Chain.input_tensors chain)

let run rng =
  List.iter
    (fun (name, chain, reservoir) ->
      match
        Mcf_search.Tuner.tune ~seed:(tuner_seed rng) ?reservoir spec chain
      with
      | Error _ -> mismatch "scaled %s: no viable candidate" name
      | Ok o ->
        let inputs = random_inputs rng chain in
        let got = Mcf_interp.Interp.run_candidate chain o.best.cand ~inputs in
        let want = Mcf_interp.Interp.reference chain ~inputs in
        if not (Mcf_tensor.Tensor.approx_equal ~tol:1e-3 got want) then
          mismatch "scaled %s: the interpreted winner differs from the reference by %g"
            name
            (Mcf_tensor.Tensor.max_abs_diff got want))
    (instances rng)
